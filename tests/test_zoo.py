"""Family catalog: normalization certificates, constructions, spec parsing."""

import copy
import math
import pickle

import numpy as np
import pytest

from alphatail import zoo
from alphatail import (
    DepthExceeded,
    DiffusionRun,
    FamilyKind,
    FamilySpec,
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
# for K in TAIL_KS]) as float.hex(): the log-power rows with its
# second-order bracket, each checked against 40-digit mpmath sums; every
# tail_mass_bound then 4 ulps higher once it was widened past its rounding.
# The power rows again once power's mass bracket became the second-order
# one log-power has: the lam = 1.5, 2 and 3 normalizers moved down by 3 to
# 5 ulps, toward 1/zeta(lam) (lam = 1.01's did not move; all lie within
# 3.3e-16 relative of 40-digit 1/zeta(lam)), and each tail bracket narrowed
# from about K^-2 to K^-4 of the tail.  Every tail_mass_lower, log-power's
# too, then 4 ulps lower once it was widened down past its rounding; the
# log-power norm_constant, mass_halfwidth and tail_mass_bound did not move
TAIL_KS = (1, 10, 255, 10 ** 3, 10 ** 6)
PINNED_TAILS = {
    "power:lambda=1.01": ("0x1.45cc0d45476d1p-7", "0x1.cd2b297d889bcp-51", [
        ("0x1.fae96e7a3093ap-1", "0x1.fae824f771672p-1"),
        ("0x1.f139cebd6a4acp-1", "0x1.f139ce62c9e8dp-1"),
        ("0x1.e19b89413b47cp-1", "0x1.e19b89413b33ap-1"),
        ("0x1.db140062780c2p-1", "0x1.db140062780b9p-1"),
        ("0x1.bb5ef4d12f2adp-1", "0x1.bb5ef4d12f2a5p-1"),
    ]),
    "power:lambda=1.5": ("0x1.87fafd259c5f2p-2", "0x1.a90b18546ce11p-50", [
        ("0x1.3c263a98d589fp-1", "0x1.3bda708e4b333p-1"),
        ("0x1.e3bc0ea8784a0p-3", "0x1.e3bbea7e82a8dp-3"),
        ("0x1.885d14649598dp-5", "0x1.885d14648ee56p-5"),
        ("0x1.8c8ea22d32fd6p-6", "0x1.8c8ea22d32f56p-6"),
        ("0x1.91634a7858c82p-11", "0x1.91634a7858c7ap-11"),
    ]),
    "power:lambda=2": ("0x1.37423899a1556p-1", "0x1.f5e653e5a3387p-51", [
        ("0x1.920ade711b0e9p-2", "0x1.90d39c38816cbp-2"),
        ("0x1.d9f14d664e119p-5", "0x1.d9f0cebd75390p-5"),
        ("0x1.37de0d964cea9p-9", "0x1.37de0d963975fp-9"),
        ("0x1.3e91cf8a30c9cp-11", "0x1.3e91cf8a30b37p-11"),
        ("0x1.4660d2a8e5a76p-21", "0x1.4660d2a8e5a6ep-21"),
    ]),
    "power:lambda=3": ("0x1.a9efc35d12234p-1", "0x1.279922c962d0ep-50", [
        ("0x1.5a12cebb9ebcep-3", "0x1.55e9f753360f1p-3"),
        ("0x1.ed66a921849e9p-9", "0x1.ed6432db9d47ap-9"),
        ("0x1.ab9a881850e43p-18", "0x1.ab9a8817cbc8cp-18"),
        ("0x1.be2e33096f137p-22", "0x1.be2e33096e7a6p-22"),
        ("0x1.d4525e191d922p-42", "0x1.d4525e191d91ap-42"),
    ]),
    "logpower:lambda=1.5,k0=5": ("0x1.3a6187e0c5d8dp-1", "0x1.1f3820ae4e598p-49", [
        ("0x1.e1356fba78518p-1", "0x1.e133c8d648f25p-1"),
        ("0x1.8079acc8ff93bp-1", "0x1.8079a905b6e03p-1"),
        ("0x1.0aaf2c198e3bep-1", "0x1.0aaf2c198da89p-1"),
        ("0x1.de4e93d5863e6p-2", "0x1.de4e93d5863d1p-2"),
        ("0x1.5252eceb67ed3p-2", "0x1.5252eceb67ecbp-2"),
    ]),
    "logpower:lambda=2,k0=2": ("0x1.e55e022e5eb22p-2", "0x1.5c225945ff3d0p-50", [
        ("0x1.03a9ca293c7aep-1", "0x1.032f679a00d70p-1"),
        ("0x1.8d5ded0a8722cp-3", "0x1.8d5dd04125d1dp-3"),
        ("0x1.5dfec77f227e7p-4", "0x1.5dfec77f20ab6p-4"),
        ("0x1.18fed4beb93a7p-4", "0x1.18fed4beb938cp-4"),
        ("0x1.190e6eba20905p-5", "0x1.190e6eba208fdp-5"),
    ]),
    "logpower:lambda=3,k0=17": ("0x1.f714208ff906bp+3", "0x1.c3553c1f8d7e6p-49", [
        ("0x1.eb2e41433c6bep-1", "0x1.eb2e31ce64fbep-1"),
        ("0x1.76b7cc8d65e0cp-1", "0x1.76b7cacbede41p-1"),
        ("0x1.004f5375742e9p-2", "0x1.004f537571780p-2"),
        ("0x1.4fc8072358116p-3", "0x1.4fc80723580dap-3"),
        ("0x1.515f9b26bab31p-5", "0x1.515f9b26bab29p-5"),
    ]),
}


@pytest.mark.parametrize("spec_text", list(PINNED_TAILS))
def test_power_type_tails_are_pinned(spec_text):
    dist = make_distribution(parse_spec(spec_text))
    norm, halfwidth, tails = PINNED_TAILS[spec_text]
    assert (dist.norm_constant.hex(), dist.mass_halfwidth.hex()) == (norm, halfwidth)
    assert [(dist.tail_mass_bound(K).hex(), dist.tail_mass_lower(K).hex()) for K in TAIL_KS] == tails


def test_power_mass_bracket_contains_hurwitz_zeta():
    # the n = 0 bracket [I + f/2 - f'/12 - |f'''|/384, I + f/2 - f'/12] on
    # sum_{k>K} k^-lam, Hurwitz's zeta(lam, K+1), holds it in 40 digits
    # within 4 ulps of rounding (measured: 1.9 above the upper end, 1.6
    # below the lower), and strictly where it is wider than 10^3 ulps; there
    # the sum sits 0.47 to 0.66 of the way up, near the 1 - 384/720 that the
    # Bernoulli kernel's mean 1/30 puts it at
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(16)
    for _ in range(2000):
        lam = float(rng.uniform(1.01, 7.3))
        K = int(2.0 ** rng.uniform(0.0, 27.0))
        lo, hi = zoo._tail_bracket(FamilyKind.POWER, {"lambda": lam}, K)
        with mp.workdps(40):
            want = mp.zeta(lam, K + 1)
        slack = 4.0 * math.ulp(hi)
        assert lo - slack <= want <= hi + slack, (lam, K)
        if hi - lo > 1e3 * slack:
            assert lo < want < hi, (lam, K)
            assert 0.4 < (want - lo) / (hi - lo) < 0.7, (lam, K)


@pytest.mark.parametrize("kind", [FamilyKind.POWER, FamilyKind.LOG_POWER])
@pytest.mark.parametrize("kernel", list(zoo.Kernel), ids=lambda k: k.name)
def test_series_sandwich_refuses_n_below_one(kind, kernel):
    # the tail mass, n = 0, is _tail_bracket's; at n = 0 e^{-np}'s power
    # convexity quadratic has no root and divided by zero
    dist = make_distribution(FamilySpec(kind, {"lambda": 2.0}))
    with pytest.raises(InvalidParams, match="n >= 1"):
        dist.series_tail(0.0, kernel)


NORMALIZATION_TERMS = {1.01: 1792, 1.1: 1792, 1.5: 768, 2.0: 768, 3.0: 256}


@pytest.mark.parametrize("lam", list(NORMALIZATION_TERMS))
def test_power_norm_constant_within_its_halfwidth(lam):
    # the certified mass norm_constant * zeta(lam) lies within
    # mass_halfwidth of 1, against 40-digit zeta, down to lam = 1.01, where
    # the integral term 1/(lam-1) is most of the bracket
    mp = pytest.importorskip("mpmath")
    dist = make_distribution(parse_spec(f"power:lambda={lam}"))
    with mp.workdps(40):
        assert abs(mp.mpf(dist.norm_constant) * mp.zeta(lam) - 1) <= dist.mass_halfwidth


@pytest.mark.parametrize("lam", list(NORMALIZATION_TERMS))
def test_power_normalization_terms(lam, monkeypatch):
    # the n = 0 bracket narrows like K^-4, so normalization stops at the
    # chunk end 256, 768 or 1,792; the first-order sandwich, about K^-2,
    # summed 3,145,472 (lam = 1.01), 2,096,896, 261,888, 32,512 and 3,840
    summed = []
    weights = zoo._log_weight_block

    def counted(kind, p, ks):
        summed.append(len(ks))
        return weights(kind, p, ks)
    monkeypatch.setattr(zoo, "_log_weight_block", counted)
    make_distribution(parse_spec(f"power:lambda={lam}"))
    assert sum(summed) <= NORMALIZATION_TERMS[lam]


def _logpower_mass_mp(mp, lam: float, k0: int, K: int):
    """sum_{k>K} 1/(j ln^lam j), j = k+k0-1, at mpmath's working precision:
    the terms up to M = K + 200, then the integral from M less g(M)/2 and
    three Euler-Maclaurin terms at M."""
    m_lam = mp.mpf(lam)
    g = lambda x: 1 / ((x + k0 - 1) * mp.log(x + k0 - 1) ** m_lam)  # noqa: E731
    M = K + 200
    em = g(mp.mpf(M)) / 2 + mp.fsum(
        mp.bernoulli(2 * i) / mp.factorial(2 * i) * mp.diff(g, M, 2 * i - 1) for i in range(1, 4))
    return (mp.fsum(g(mp.mpf(k)) for k in range(K + 1, M + 1))
            + mp.log(M + k0 - 1) ** (1 - m_lam) / (m_lam - 1) - em)


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
                want = _logpower_mass_mp(mp, lam, k0, K)
            slack = 4.0 * math.ulp(hi)
            assert lo - slack <= want <= hi + slack, (k0, K)
            if hi - lo > 1e3 * slack:
                assert lo < want < hi, (k0, K)


@pytest.mark.parametrize("spec_text", [f"power:lambda={lam}" for lam in (1.5, 2.0, 3.0)] + [
    f"logpower:lambda={lam},k0={k0}" for lam in (1.5, 2.0, 3.0) for k0 in (2, 17)])
def test_tail_mass_bound_covers_its_rounding(spec_text):
    # a closed form's mass bound is widened by 4 ulps past its rounding, so
    # it is at or above norm_constant times the 40-digit tail: unwidened,
    # log-power bounds fell up to 2 ulps below it (lambda = 3, k0 = 17 at
    # K = 1e4 by 2.0, at K = 1e6 by 0.65)
    mp = pytest.importorskip("mpmath")
    dist = make_distribution(parse_spec(spec_text))
    lam, k0 = dist.spec.params["lambda"], dist.spec.params.get("k0")
    for K in (1, 10, 255, 4581, 10 ** 4, 10 ** 5, 10 ** 6):
        with mp.workdps(40):
            tail = mp.zeta(lam, K + 1) if k0 is None else _logpower_mass_mp(mp, lam, k0, K)
            assert mp.mpf(dist.norm_constant) * tail <= dist.tail_mass_bound(K), K


@pytest.mark.parametrize("spec_text", [f"power:lambda={lam}" for lam in (1.01, 1.5, 2.0, 3.0, 7.3)] + [
    f"logpower:lambda={lam},k0={k0}" for lam in (1.5, 2.0, 3.0) for k0 in (2, 17)])
def test_tail_mass_lower_covers_its_rounding(spec_text):
    # the lower end is widened down by the same 4 ulps, so it is at or below
    # norm_constant times the 40-digit tail: in float the power mass
    # bracket's lower end lies up to 1.7 ulps above zeta(lam, K+1)
    mp = pytest.importorskip("mpmath")
    dist = make_distribution(parse_spec(spec_text))
    lam, k0 = dist.spec.params["lambda"], dist.spec.params.get("k0")
    for K in (1, 10, 255, 4581, 10 ** 4, 10 ** 5, 10 ** 6):
        with mp.workdps(40):
            tail = mp.zeta(lam, K + 1) if k0 is None else _logpower_mass_mp(mp, lam, k0, K)
            assert dist.tail_mass_lower(K) <= mp.mpf(dist.norm_constant) * tail, K


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
        assert s.params["p"] == (0.5, 0.3, 0.2)

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

    def test_block_end_grid(self):
        # 64, then blocks that double from 2^11 - 64 values to 2^16, then
        # stay at 2^16
        ends = [zoo.block_end(i) for i in range(10)]
        assert ends == [64, 1024, 3072, 7168, 15360, 31744, 64512, 130048, 195584, 261120]

    def test_blocks_end_on_the_grid(self, geom2):
        ends = [zoo.block_end(i) for i in range(12)]
        blocks = list(geom2.prob_blocks(ends[-1] + 1))
        assert [start for start, _ in blocks] == [1] + [K + 1 for K in ends[:-1]]
        assert [start + len(p) - 1 for start, p in blocks] == ends
        assert max(len(p) for _, p in blocks) == 1 << 16

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


class TestCanonicalSpec:
    """parse_spec returns the spec of the distribution built from it, every
    parameter of its family present; a parameter the family does not take
    is refused, from the text and from the API alike."""

    @pytest.mark.parametrize("spec_text", ALL_SPECS + [
        "logpower:lambda=2", "pairavg:base=(power:lambda=2)", "congregated:base=(geometric:a=2)",
    ])
    def test_parsed_spec_is_the_built_spec(self, spec_text):
        spec = parse_spec(spec_text)
        assert make_distribution(spec).spec == spec
        assert parse_spec(format_spec(spec)) == spec

    def test_defaults_are_filled_in(self):
        assert parse_spec("logpower:lambda=2") == parse_spec("logpower:lambda=2,k0=2")
        assert parse_spec("diffusion:") == parse_spec("diffusion:stages=8")
        assert parse_spec("congregated:base=(geometric:a=2)").params["depth"] == 48
        assert parse_spec("pairavg:base=(geometric:a=2)").params["depth"] == 512
        assert format_spec(FamilySpec(FamilyKind.LOG_POWER, {"lambda": 2})) == "logpower:lambda=2.0,k0=2"

    def test_catalog_covers_every_family(self):
        assert {s.kind for s in catalog()} == set(FamilyKind)

    def test_api_spec_builds_the_parsed_distribution(self):
        geo2 = FamilySpec(FamilyKind.GEOMETRIC, {"a": 2})
        for kind, text in [(FamilyKind.CONGREGATED, "congregated:base=(geometric:a=2)"),
                           (FamilyKind.PAIR_AVERAGED, "pairavg:base=(geometric:a=2)")]:
            built = make_distribution(FamilySpec(kind, {"base": geo2}))
            parsed = make_distribution(parse_spec(text))
            assert built.spec == parsed.spec
            assert built.levels() == parsed.levels()
            assert built.beyond_prefix_log2_mass == parsed.beyond_prefix_log2_mass
        built = make_distribution(FamilySpec(FamilyKind.DIFFUSION, {}))
        assert built.levels() == make_distribution(parse_spec("diffusion:stages=8")).levels()

    @pytest.mark.parametrize("spec_text, spec", [
        ("geometric:a=2,lambda=3", FamilySpec(FamilyKind.GEOMETRIC, {"a": 2.0, "lambda": 3.0})),
        ("power:lambda=2,k0=5", FamilySpec(FamilyKind.POWER, {"lambda": 2.0, "k0": 5})),
        ("finite:p=0.5;0.5,a=3", FamilySpec(FamilyKind.FINITE, {"p": [0.5, 0.5], "a": 3.0})),
        ("diffusion:stages=3,base=(geometric:a=2)",
         FamilySpec(FamilyKind.DIFFUSION, {"stages": 3, "base": FamilySpec(FamilyKind.GEOMETRIC, {"a": 2.0})})),
    ])
    def test_parameter_the_family_does_not_take_is_refused(self, spec_text, spec):
        with pytest.raises(SpecParseError, match="unknown parameter"):
            parse_spec(spec_text)
        with pytest.raises(InvalidParams, match="takes no parameter"):
            make_distribution(spec)

    @pytest.mark.parametrize("spec", [
        FamilySpec(FamilyKind.POWER, {}),
        FamilySpec(FamilyKind.TILTED_GEOMETRIC, {"lambda": 1.0}),
        FamilySpec(FamilyKind.CONGREGATED, {"depth": 48}),
        FamilySpec(FamilyKind.CONGREGATED, {"base": FamilySpec(FamilyKind.GEOMETRIC, {"a": 2.0}), "depth": 100.5}),
        FamilySpec(FamilyKind.PAIR_AVERAGED, {"base": "geometric:a=2"}),
        FamilySpec(FamilyKind.LOG_POWER, {"lambda": "two"}),
        FamilySpec(FamilyKind.FINITE, {"p": 0.5}),
        FamilySpec(FamilyKind.DIFFUSION, {"stages": 0}),
        FamilySpec("nosuch", {}),
    ])
    def test_missing_or_mistyped_parameter_is_refused(self, spec):
        # a depth of 100.5 was built as depth 100, and a lambda of "two" ended
        # in a bare ValueError
        with pytest.raises(InvalidParams):
            make_distribution(spec)

    @pytest.mark.parametrize("spec", [
        FamilySpec(FamilyKind.POWER, {}),
        FamilySpec(FamilyKind.GEOMETRIC, {"a": 2.0, "lambda": 3.0}),
        FamilySpec(FamilyKind.CONGREGATED, {"base": "geometric:a=2"}),
        FamilySpec("nosuch", {}),
    ])
    def test_invalid_spec_still_prints(self, spec):
        # str() went through the canonical spec and raised InvalidParams, so
        # a message naming the bad spec failed with a different error
        assert str(spec) == repr(spec)
        assert f"{spec}" == repr(spec)

    def test_valid_spec_prints_its_canonical_text(self):
        assert str(FamilySpec(FamilyKind.LOG_POWER, {"lambda": 2})) == "logpower:lambda=2.0,k0=2"

    def test_spec_cannot_be_mutated(self):
        # setting a = 4 on a built geometric:a=2 made prob(1) read 0.25 while
        # its normalizer stayed that of a = 2
        dist = make_distribution(parse_spec("geometric:a=2"))
        for spec in (parse_spec("geometric:a=2"), dist.spec):
            with pytest.raises(TypeError):
                spec.params["a"] = 4.0
        assert dist.prob(1) == 0.5
        finite = parse_spec("finite:p=0.5;0.5")
        with pytest.raises(TypeError):
            finite.params["p"][0] = 0.25
        base = parse_spec("congregated:base=(geometric:a=2)").params["base"]
        with pytest.raises(TypeError):
            base.params["a"] = 4.0

    @pytest.mark.parametrize("spec, text", [
        (FamilySpec(FamilyKind.GEOMETRIC, {"a": 2}), "geometric:a=2"),
        (FamilySpec(FamilyKind.TILTED_GEOMETRIC, {"r": 1, "lambda": 1.0}), "tilted:lambda=1,r=1"),
        (FamilySpec(FamilyKind.CONGREGATED, {"depth": 48, "base": FamilySpec(FamilyKind.GEOMETRIC, {"a": 2})}),
         "congregated:base=(geometric:a=2)"),
    ])
    def test_equal_specs_hash_equal(self, spec, text):
        # hash(parse_spec("geometric:a=2")) raised TypeError
        assert spec == parse_spec(text)
        assert hash(spec) == hash(parse_spec(text)) == hash(make_distribution(spec).spec)

    @pytest.mark.parametrize("spec_text", ALL_SPECS)
    def test_spec_pickles_and_copies_to_an_equal_read_only_spec(self, spec_text):
        spec = parse_spec(spec_text)
        dist = make_distribution(spec)
        for other in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec),
                      pickle.loads(pickle.dumps(dist)).spec):
            assert other == spec and hash(other) == hash(spec)
            with pytest.raises(TypeError):
                other.params["x"] = 1.0

    def test_catalog_specs_are_set_members(self):
        specs = set(catalog())
        assert len(specs) == len(catalog())
        assert all(parse_spec(text) in specs for text in ALL_SPECS)
        # a finite vector given as a list hashes too
        assert isinstance(hash(FamilySpec(FamilyKind.FINITE, {"p": [0.5, 0.5]})), int)
