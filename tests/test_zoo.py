"""Family catalog: normalization certificates, constructions, spec parsing."""

import math

import numpy as np
import pytest

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
])
def test_parameter_validation(bad_spec, exc):
    with pytest.raises(exc):
        make_distribution(parse_spec(bad_spec))


def test_immutability_of_spec():
    spec = parse_spec("geometric:a=2")
    with pytest.raises(AttributeError):
        spec.kind = FamilyKind.POWER
