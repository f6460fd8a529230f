"""Series evaluation, truncation certificates, oscillation and gap machinery."""

import hashlib
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from alphatail import tail_index, zoo
from alphatail.cli import _parse_schedule
from alphatail import (
    AlphatailError,
    Distribution,
    FamilyKind,
    FamilySpec,
    FiniteSupport,
    IndexValue,
    InvalidParams,
    catalog,
    em_gap,
    evaluate_series,
    format_spec,
    geometric_band_ceiling,
    make_distribution,
    oscillation_state,
    oscillation_t,
    parse_spec,
    power_tail_limit,
    scaled_pair,
    tn,
    zeta1,
)

E_INV = math.exp(-1.0)


class TestZetaBasics:
    def test_degenerate(self):
        d = make_distribution(parse_spec("finite:p=1.0"))
        assert zeta1(d, 7).value == 0.0

    def test_uniform2(self, uniform2):
        assert zeta1(uniform2, 1).value == pytest.approx(0.5, abs=1e-15)
        assert zeta1(uniform2, 2).value == pytest.approx(0.25, abs=1e-15)
        assert tn(uniform2, 2).value == pytest.approx(0.5, abs=1e-15)

    def test_uniform10_closed_form(self, uniform10):
        # single-value support: t_n = n * 0.9^n exactly
        iv = tn(uniform10, 100)
        assert iv.value == pytest.approx(100 * 0.9 ** 100, rel=1e-12)

    def test_n_validation(self, uniform2):
        with pytest.raises(InvalidParams):
            tn(uniform2, 0)
        with pytest.raises(InvalidParams):
            zeta1(uniform2, -3)
        with pytest.raises(InvalidParams):
            zeta1(uniform2, 5, eps=0.0)

    @pytest.mark.parametrize("n", [2.5, 4.0, math.nan, math.inf, "8", None, 0, -1])
    def test_n_must_be_a_positive_integer(self, geom2, power2, n):
        for call in (lambda: tn(geom2, n), lambda: zeta1(geom2, n), lambda: scaled_pair(geom2, n, 0.5),
                     lambda: em_gap(power2, n), lambda: oscillation_state(geom2, n),
                     lambda: evaluate_series(geom2, [n, 16])):
            with pytest.raises(InvalidParams):
                call()

    @pytest.mark.parametrize("eps", [math.nan, 0.0, -1.0])
    def test_eps_checked_before_any_work(self, geom2, pairavg2, power2, eps, monkeypatch):
        # eps = nan summed 2^24 terms, and scaled_pair ran to the cap with
        # any eps before it raised
        for name in ("_stop", "_sweep", "_terms"):
            monkeypatch.setattr(tail_index, name, None)
        for call in (lambda: tn(geom2, 10, eps=eps), lambda: zeta1(pairavg2, 10, eps=eps),
                     lambda: evaluate_series(geom2, [16, 64], eps=eps),
                     lambda: scaled_pair(power2, 10 ** 4, 0.5, eps=eps)):
            with pytest.raises(InvalidParams, match="eps must be positive"):
                call()

    def test_eps_is_a_float_range_target(self, diffusion14):
        # past 2**53 the whole table is summed and eps is not read
        n = 1 << 60
        assert tn(diffusion14, n, eps=math.nan) == tn(diffusion14, n)
        assert zeta1(diffusion14, n, eps=0.0) == zeta1(diffusion14, n)

    def test_numpy_integers_are_integers(self, geom2):
        assert tn(geom2, np.int64(100)) == tn(geom2, 100)
        assert evaluate_series(geom2, np.array([16, 64])).points == evaluate_series(geom2, [16, 64]).points

    def test_schedule_checked_before_any_point(self, logpower2, monkeypatch):
        monkeypatch.setattr(tail_index, "_series_points", None)
        for schedule in ([10 ** 8, 1000], [1000, 2.5], [10 ** 8, 10 ** 8]):
            with pytest.raises(InvalidParams):
                evaluate_series(logpower2, schedule)

    def test_index_value_rejects_nan(self):
        with pytest.raises(AlphatailError):
            IndexValue(1, math.nan, 0.0, 1)

    def test_identity_bit_exact(self, geom2, power2, uniform10):
        for dist in (geom2, power2, uniform10):
            for n in (3, 17, 1000):
                z = zeta1(dist, n)
                t = tn(dist, n)
                assert t.value == n * z.value

    def test_monotone_decay(self, uniform2, geom2):
        for dist in (uniform2, geom2):
            prev = zeta1(dist, 1).value
            for n in range(2, 40):
                cur = zeta1(dist, n).value
                assert cur < prev
                prev = cur

    def test_permutation_invariance(self):
        vec = [0.4, 0.3, 0.2, 0.1]
        base = zeta1(make_distribution(FamilySpec(FamilyKind.FINITE, {"p": vec})), 9)
        rng = random.Random(0)
        for _ in range(5):
            shuffled = vec[:]
            rng.shuffle(shuffled)
            other = zeta1(make_distribution(FamilySpec(FamilyKind.FINITE, {"p": shuffled})), 9)
            assert other.value == base.value


class TestCertificates:
    @pytest.mark.parametrize("spec_text", [format_spec(s) for s in catalog()])
    @pytest.mark.parametrize("n", [10, 100, 10 ** 3, 10 ** 4, 10 ** 5])
    def test_sandwich_soundness(self, spec_text, n):
        """Coarse (value, value+trunc) brackets must contain a finer evaluation."""
        dist = make_distribution(parse_spec(spec_text))
        coarse = tn(dist, n, eps=1e-2)
        fine = tn(dist, n, eps=1e-4)
        assert coarse.value <= fine.value + fine.trunc_error + 1e-12
        assert coarse.value + coarse.trunc_error >= fine.value - 1e-12

    @pytest.mark.parametrize("a, n", [(2.0, 10), (2.0, 1000), (math.e, 500)])
    def test_bracket_contains_high_precision_reference(self, a, n):
        """Independent oracle: 50-digit summation of the geometric series."""
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        c = mp.mpf(a) - 1
        ref = mp.fsum(
            n * c * mp.power(a, -k) * mp.power(1 - c * mp.power(a, -k), n)
            for k in range(1, 400)
        )
        dist = make_distribution(parse_spec(f"geometric:a={a!r}"))
        iv = tn(dist, n, eps=1e-9)
        assert iv.value <= float(ref) * (1 + 1e-11)
        assert iv.value + iv.trunc_error >= float(ref) * (1 - 1e-11)

    def test_trunc_hits_target_for_geometric(self, geom2):
        iv = tn(geom2, 10 ** 4, eps=1e-9)
        assert iv.trunc_error <= 1e-9

    @pytest.mark.parametrize("spec_text, cap", [
        ("power:lambda=1.5", 1 << 20), ("logpower:lambda=2,k0=2", 1 << 12)])
    def test_honest_trunc_when_capped(self, spec_text, cap):
        # neither tail can certify 1e-12 at n=1e6 within its cap: the power
        # sandwich is still too wide there, and the log-power cap falls
        # short of f'''' >= 0; the reported remainder must say so rather
        # than pretend
        iv = tn(make_distribution(parse_spec(spec_text)), 10 ** 6, eps=1e-12, max_terms=cap)
        assert iv.trunc_error > 1e-12
        assert iv.terms_used == cap

    def test_finite_has_zero_trunc(self, uniform10):
        assert tn(uniform10, 12345).trunc_error == 0.0


# t_n as 30-digit mpmath sums: the lambda = 2 rows from bench/refs.json; the
# lambda = 1.5 rows computed apart, as the head sum over k <= K plus the exact
# tail (c^{1/lam}/lam) B_{p(K)}(1-1/lam, n+1) - f(K)/2 less four
# Euler-Maclaurin terms, c = 1/zeta(1.5), with two cut points K per row
# (2e3/4e3, 1e4/2e4, 1.5e5/2.5e5) agreeing in every printed digit
POWER_REFS = [
    ("power:lambda=2", 1000, "21.84277876406327379400344"),
    ("power:lambda=2", 223872, "326.941352786883545615595"),
    ("power:lambda=2", 10 ** 8, "6909.882963514648454878989"),
    ("power:lambda=1.5", 1000, "94.13503517200011634334772"),
    ("power:lambda=1.5", 223872, "3471.473550054048159327022"),
    ("power:lambda=1.5", 10 ** 8, "202852.8457574109491965245"),
]
LOGPOWER_REFS = [
    (1000, "123.3084328254529784883514"),
    (223872, "13458.32563118769524461052"),
    (10 ** 8, "3639634.907342783999780465"),
]
# per row, a max_terms below the first index where p(1-p)^n has f'''' >= 0
LOGPOWER_LOWER_TERM_CAPS = {1000: 1 << 3, 223872: 1 << 10, 10 ** 8: 1 << 16}


BINOMIAL, POISSON = zoo.Kernel.BINOMIAL, zoo.Kernel.POISSON


def _sandwich(dist: Distribution, n: float, kernel) -> zoo.Sandwich:
    """The closed-form sandwich ``tail_index`` closes dist's tail with at n."""
    return zoo.tail_sandwich(dist.kind, dist.norm_constant, dist.spec.params, n, kernel)


def _kernel_cases(ns, lams):
    """(n, lam, kernel) for both kernels, with ids n-lam for (1-p)^n and
    n-lam-poisson for e^{-np}."""
    return [pytest.param(n, lam, kernel, id=f"{n}-{lam}" + ("" if kernel is BINOMIAL else "-poisson"))
            for kernel in (BINOMIAL, POISSON) for n in ns for lam in lams]


def _brackets(iv, ref: float) -> bool:
    # float rounding of the sums and the normalizer's halfwidth lie outside
    # trunc_error: allow (terms_used + 1e4) ulps of the upper end
    slack = (iv.terms_used + 1e4) * 2.0 ** -52 * iv.upper
    return iv.value - slack <= ref <= iv.upper + slack


class TestPowerClosure:
    @pytest.mark.parametrize("spec_text, n, ref", POWER_REFS)
    def test_certifies_eps_and_brackets_reference(self, spec_text, n, ref):
        iv = tn(make_distribution(parse_spec(spec_text)), n, eps=1e-9)
        assert iv.trunc_error <= 1e-9
        assert iv.terms_used <= 5 * 10 ** 6
        assert _brackets(iv, float(ref))

    @pytest.mark.parametrize("n, ref", LOGPOWER_REFS)
    def test_logpower_lower_term_brackets_reference(self, logpower2, n, ref):
        iv = tn(logpower2, n, eps=1e-9)
        assert 0.0 < iv.trunc_error <= 1e-9
        assert iv.terms_used <= 2 ** 23
        assert _brackets(iv, float(ref))
        # a cap short of the convex point still ends in the lower term
        # w(p_{K+1}) * (lower tail mass), and that bracket holds too
        cap = LOGPOWER_LOWER_TERM_CAPS[n]
        assert not _sandwich(logpower2, float(n), BINOMIAL).convex(cap + 0.5)
        capped = tn(logpower2, n, eps=1e-9, max_terms=cap)
        assert capped.terms_used == cap
        assert _brackets(capped, float(ref))

    def test_logpower_width_is_never_zero(self, logpower2):
        # deep in the tail the sandwich's ends round to one float (at
        # n = 1e9 and 2^23 terms they are equal); the width is floored at
        # one ulp of the upper end instead of certifying zero
        assert 0.0 < tn(logpower2, 10 ** 8).trunc_error <= 1e-9
        assert tn(logpower2, 10 ** 9, max_terms=1 << 23).trunc_error > 0.0

    def test_logpower_stops_at_the_width_floor(self, logpower2):
        # at n = 3e8, eps = 1e-9 lies below n ulps of the tail: the sum stops
        # once the closed bracket is one ulp wide instead of running to the cap
        n = 3 * 10 ** 8
        iv = tn(logpower2, n, eps=1e-9)
        assert iv.terms_used < tail_index.DEFAULT_MAX_TERMS
        for cap in (1 << 22, 1 << 24):
            other = tn(logpower2, n, eps=1e-9, max_terms=cap)
            assert max(iv.value, other.value) <= min(iv.upper, other.upper)

    @pytest.mark.parametrize("n, lam, kernel", _kernel_cases([1, 1000, 10 ** 8], [1.1, 1.5, 2.0, 7.0]))
    def test_convexity_starts_at_x_c(self, n, lam, kernel):
        mp = pytest.importorskip("mpmath")
        c = 0.6
        x_c = zoo._power_convex_from(c, lam, float(n), kernel)
        with mp.workdps(40):
            m_c, m_lam = mp.mpf(c), mp.mpf(lam)
            if kernel is BINOMIAL:
                f = lambda x: m_c * x ** -m_lam * (1 - m_c * x ** -m_lam) ** n  # noqa: E731
            else:
                f = lambda x: m_c * x ** -m_lam * mp.exp(-n * m_c * x ** -m_lam)  # noqa: E731
            assert mp.diff(f, mp.mpf(x_c) * (1 - mp.mpf(1e-6)), 2) < 0
            for scale in (1 + 1e-6, 2, 100):
                assert mp.diff(f, mp.mpf(x_c) * scale, 2) > 0

    @pytest.mark.parametrize("n, lam, kernel", _kernel_cases(
        [1, 10, 1000, 223872, 10 ** 8, 2 ** 53], [1.1, 1.5, 2.0, 3.0, 7.0]))
    def test_tail_integral_matches_mpmath(self, n, lam, kernel):
        mp = pytest.importorskip("mpmath")
        c = 0.6
        x_c = zoo._power_convex_from(c, lam, float(n), kernel)
        for y in (x_c, 10 * x_c, 1000 * x_c):
            got = zoo.power_tail_integral(c, lam, float(n), y, kernel)
            with mp.workdps(40):
                m_c, m_lam, m_y = mp.mpf(c), mp.mpf(lam), mp.mpf(y)
                a, x = 1 - 1 / m_lam, m_c * m_y ** -m_lam
                if kernel is BINOMIAL:
                    want = m_c ** (1 / m_lam) / m_lam * mp.betainc(a, n + 1, 0, x)
                else:
                    want = m_c ** (1 / m_lam) / m_lam * mp.mpf(n) ** -a * mp.gammainc(a, 0, n * x)
            assert abs(got - float(want)) <= 2e-15 * float(want)

    @pytest.mark.parametrize("c", [0.6, 6 / math.pi ** 2])
    @pytest.mark.parametrize("lam", [1.1, 1.5, 2.0, 3.0, 7.0])
    def test_integral_from_one_matches_mpmath(self, lam, c):
        # em_gap's integral, the one e^{-np} tail with u = n p(y) > 1:
        # gamma(a, u) from Gamma(a) less the continued fraction's Gamma(a, u)
        mp = pytest.importorskip("mpmath")
        ns = sorted({m << j for j in range(54) for m in (1, 3) if 2 <= m << j <= 2 ** 53})
        for n in (n for n in ns if n * c > 1.0):
            got = zoo.power_tail_integral(c, lam, float(n), 1.0, POISSON)
            with mp.workdps(40):
                m_c, m_lam = mp.mpf(c), mp.mpf(lam)
                a = 1 - 1 / m_lam
                want = m_c ** (1 / m_lam) / m_lam * mp.mpf(n) ** -a * mp.gammainc(a, 0, n * m_c)
            assert abs(got - float(want)) <= 5e-15 * float(want), n


def _logpower_first_convex(c: float, lam: float, k0: int, n: int, kernel) -> float:
    """The least x >= 1 that passes the log-power convexity check, by
    bisection: the check is monotone in x."""
    convex = lambda x: zoo._logpower_convex_at(c, lam, k0, float(n), x, kernel)  # noqa: E731
    lo, hi = 1.0, 2.0 ** 60
    if convex(lo):
        return lo
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi) if hi < 4.0 * lo else math.sqrt(lo * hi)
        lo, hi = (lo, mid) if convex(mid) else (mid, hi)
    return hi


def _logpower_first_valid(c: float, lam: float, k0: int, n: int, kernel) -> float:
    """The least x >= 1 that passes the log-power test of f'''' >= 0, by
    bisection: the test is monotone in x."""
    valid = lambda x: zoo._logpower_fourth_from(c, lam, k0, float(n), x, kernel)  # noqa: E731
    lo, hi = 1.0, 2.0 ** 60
    if valid(lo):
        return lo
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi) if hi < 4.0 * lo else math.sqrt(lo * hi)
        lo, hi = (lo, mid) if valid(mid) else (mid, hi)
    return hi


def _logpower_f(mp, c: float, lam: float, k0: int, n: int, kernel):
    """f(x) = p w(p), p = c/(j ln^lam j), j = x+k0-1, in mpmath, and w - 1."""
    m_c, m_lam = mp.mpf(c), mp.mpf(lam)
    if kernel is BINOMIAL:
        w1 = lambda q: mp.expm1(n * mp.log1p(-q))  # noqa: E731
    else:
        w1 = lambda q: mp.expm1(-n * q)  # noqa: E731
    p = lambda x: m_c / ((x + k0 - 1) * mp.log(x + k0 - 1) ** m_lam)  # noqa: E731
    return (lambda x: p(x) * (1 + w1(p(x)))), w1


def _logpower_tail_mp(c: float, lam: float, k0: int, n: int, kernel, K: int, head: int = 200):
    """sum_{k>K} p_k w(p_k) at 40 digits: the terms up to M = K + head, then
    the integral from M in u = ln j, less f(M)/2 and three Euler-Maclaurin
    terms at M."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        f, w1 = _logpower_f(mp, c, lam, k0, n, kernel)
        m_c, m_lam = mp.mpf(c), mp.mpf(lam)
        M = K + head
        u0 = mp.log(M + k0 - 1)
        # in u = ln j: c u^-lam (w(p) - 1) decays like e^-u, and the rest
        # integrates exactly
        integral = m_c * u0 ** (1 - m_lam) / (m_lam - 1) + mp.quad(
            lambda u: m_c * u ** -m_lam * w1(m_c * mp.exp(-u) * u ** -m_lam), [u0, mp.inf])
        em = f(mp.mpf(M)) / 2 + mp.fsum(mp.bernoulli(2 * i) / mp.factorial(2 * i) * mp.diff(f, M, 2 * i - 1)
                                        for i in range(1, 4))
        return mp.fsum(f(mp.mpf(k)) for k in range(K + 1, M + 1)) + integral - em


# (n, lam, kernel) for the second-order bracket: n = 0 is the tail mass,
# where both kernels are 1
SECOND_ORDER_CASES = [pytest.param(0, lam, BINOMIAL, id=f"0-{lam}") for lam in (1.5, 2.0, 3.0)] + \
    _kernel_cases([1, 1000, 10 ** 6, 10 ** 8], [1.5, 2.0, 3.0])


class TestLogPowerClosure:
    @pytest.mark.parametrize("lam", [1.5, 2.0, 3.0])
    def test_gamma_ratio_matches_mpmath(self, lam):
        mp = pytest.importorskip("mpmath")
        # u0 = ln j at the cut: ln 2.5 at the smallest (K = 1, k0 = 2), ln
        # 1025.5 after the first block; at 40 digits mpmath's gammainc loses
        # every digit at a = -62, x = 138, so the reference takes 80
        for u0 in (math.log(2.5), math.log(10.0), math.log(1025.5), math.log(1e7)):
            for m in range(1, 21):
                a, x = 1.0 - (m + 1) * lam, m * u0
                got = zoo._upper_gamma_ratio(a, x)
                with mp.workdps(80):
                    want = mp.gammainc(a, x) * mp.exp(x) * mp.mpf(x) ** -a
                assert abs(got - float(want)) <= 2e-15 * float(want), (m, u0)

    @pytest.mark.parametrize("a", [1e-3, 0.05, 1 / 3, 0.5, 6 / 7, 0.999])
    def test_gamma_ratio_of_positive_order_matches_mpmath(self, a):
        # the orders 1 - 1/lam of em_gap's integral, at u = n c > 1
        mp = pytest.importorskip("mpmath")
        for x in (1 + 1e-7, 1.5, 2.0, math.pi, 10.0, 123.4, 1e4, 1e8, 1e12, 1e15):
            got = zoo._upper_gamma_ratio(a, x)
            with mp.workdps(40):
                want = mp.gammainc(a, x) * mp.exp(x) * mp.mpf(x) ** -a
            assert abs(got - float(want)) <= 2e-15 * float(want), x

    @pytest.mark.parametrize("n, lam, kernel", _kernel_cases([1, 1000, 223872, 10 ** 8], [1.5, 2.0, 3.0]))
    def test_tail_integral_bracket_contains_mpmath(self, n, lam, kernel):
        mp = pytest.importorskip("mpmath")
        c, k0 = 0.6, 2
        x_c = _logpower_first_convex(c, lam, k0, n, kernel)
        for y in (x_c, 10 * x_c, 1000 * x_c):
            lo, hi = zoo._logpower_tail_integral(c, lam, k0, float(n), y, kernel)
            with mp.workdps(40):
                m_c, m_lam = mp.mpf(c), mp.mpf(lam)
                u0 = mp.log(mp.mpf(y) + k0 - 1)
                _, w1 = _logpower_f(mp, c, lam, k0, n, kernel)
                rest = mp.quad(lambda u: m_c * u ** -m_lam * w1(m_c * mp.exp(-u) * u ** -m_lam),
                               [u0 + s for s in (0, 1, 4, 16, 64)] + [mp.inf])
                want = float(m_c * u0 ** (1 - m_lam) / (m_lam - 1) + rest)
            assert lo - 2e-15 * want <= want <= hi + 2e-15 * want, y
            assert hi - lo <= 2e-15 * want

    @pytest.mark.parametrize("k0", [2, 5])
    @pytest.mark.parametrize("n, lam, kernel", _kernel_cases([1, 1000, 10 ** 8], [1.5, 2.0, 3.0]))
    def test_convexity_from_first_certified_point(self, n, lam, kernel, k0):
        mp = pytest.importorskip("mpmath")
        c = 0.6
        x_c = _logpower_first_convex(c, lam, k0, n, kernel)
        with mp.workdps(40):
            f, _ = _logpower_f(mp, c, lam, k0, n, kernel)
            for scale in (1, 2, 100):
                assert mp.diff(f, mp.mpf(x_c) * scale, 2) > 0

    @pytest.mark.parametrize("k0", [2, 5])
    @pytest.mark.parametrize("n, lam, kernel", SECOND_ORDER_CASES)
    def test_fourth_derivative_from_first_certified_point(self, n, lam, kernel, k0):
        # f'''' >= 0 in 40 digits on a log grid from the first point the test
        # certifies; from n = 1000 on, that point lies within 7% of where
        # f'''' turns nonnegative
        mp = pytest.importorskip("mpmath")
        c = 0.6
        x_c = _logpower_first_valid(c, lam, k0, n, kernel)
        with mp.workdps(40):
            f, _ = _logpower_f(mp, c, lam, k0, n, kernel)
            for scale in (1, 1 + 1e-6, 1.01, 1.1, 2, 10, 100, 1e4):
                assert mp.diff(f, mp.mpf(x_c) * scale, 4) >= 0, scale
            if n >= 1000:
                assert mp.diff(f, mp.mpf(x_c) / 1.07, 4) < 0

    @pytest.mark.parametrize("lam, k0, x, n, c, kernel", [
        (100.92336039602623, 2, 2.1870240058093966, 11388512, 0.6862248977140428, BINOMIAL),
        (53.26361037435437, 5, 1.3782924466707691, 7640288032486, 0.6948901014355571, POISSON),
    ])
    def test_fourth_derivative_test_needs_q_to_rise(self, lam, k0, x, n, c, kernel):
        # Q >= 0 at x, so f'''' >= 0 there, yet f'''' < 0 just past x: only
        # the check that Q rises along the tail refuses the point
        mp = pytest.importorskip("mpmath")
        assert not zoo._logpower_fourth_from(c, lam, k0, float(n), x, kernel)
        with mp.workdps(60):
            f, _ = _logpower_f(mp, c, lam, k0, n, kernel)
            assert mp.diff(f, mp.mpf(x), 4) >= 0
            assert min(mp.diff(f, mp.mpf(x) * s, 4) for s in (1.01, 1.02, 1.05, 1.1)) < 0

    @pytest.mark.parametrize("n, lam, kernel", SECOND_ORDER_CASES)
    def test_second_order_bracket_contains_mpmath(self, n, lam, kernel):
        # sum_{k>K} p_k w(p_k) in 40 digits lies in the bracket at the first
        # certified K (and ten times past it up to n = 1000, beyond which
        # the bracket is an ulp wide), within 4 ulps of rounding; where
        # the bracket is wider than that, the sum lies inside it and away from
        # both ends, as the Bernoulli kernel's mean 1/30 puts it
        c = 0.6
        for k0 in (2, 5):
            K0 = max(1, math.ceil(_logpower_first_valid(c, lam, k0, n, kernel) - 0.5))
            for K in (K0, 10 * K0 + 7) if n <= 1000 else (K0,):
                lo, hi = zoo._logpower_bracket(c, lam, k0, float(n), kernel, K)
                want = _logpower_tail_mp(c, lam, k0, n, kernel, K)
                slack = 4.0 * math.ulp(hi)
                assert lo - slack <= want <= hi + slack, (k0, K)
                if hi - lo > 1e3 * slack:
                    assert 0.3 < float((want - lo) / (hi - lo)) < 0.7, (k0, K)


def _block_ends(terms: int) -> list[int]:
    """The block ends of the closed-form loop up to ``terms``: blocks of
    2^10, 2^11, ..., 2^16 values, then 2^16 values each."""
    ends = [0]
    while ends[-1] < terms:
        ends.append(ends[-1] + (1 << 10 << min(len(ends) - 1, 6)))
    return ends[1:]


class TestClosedFormBlocks:
    def test_blocks_stay_at_most_2_16_values(self, logpower2, monkeypatch):
        sizes = []
        log_prob_block = Distribution.log_prob_block

        def recording(self, start, stop):
            sizes.append(stop - start)
            return log_prob_block(self, start, stop)

        monkeypatch.setattr(Distribution, "log_prob_block", recording)
        power15 = make_distribution(parse_spec("power:lambda=1.5"))
        for dist in (logpower2, power15):
            sizes.clear()
            iv = tn(dist, 10 ** 8)
            assert max(sizes) == 1 << 16
            assert list(itertools.accumulate(sizes)) == _block_ends(iv.terms_used)

    def test_logpower_at_1e8(self, logpower2):
        # blocks that grew to 2^21 values overshot to 6,290,432 terms
        iv = tn(logpower2, 10 ** 8)
        assert 0.0 < iv.trunc_error <= 1e-9
        assert iv.terms_used <= 3_600_000
        assert _brackets(iv, float(LOGPOWER_REFS[-1][1]))

    @pytest.mark.parametrize("spec_text, n, eps", [
        # at eps = 1e-9 the log-power stops at n = 1000 and 223,872 have no
        # earlier convex block end to test; at 1e-12 n = 10,000 has one
        ("logpower:lambda=2,k0=2", 10000, 1e-12),
        ("logpower:lambda=2,k0=2", 89125094, 1e-9),
        ("logpower:lambda=2,k0=2", 10 ** 8, 1e-9),
        ("power:lambda=1.5", 10 ** 8, 1e-9),
    ])
    def test_stops_at_the_first_closing_block(self, spec_text, n, eps):
        # the search for the closing block skips bracket evaluations, yet no
        # earlier block end closes: near the one-ulp floor rounding moves
        # the computed width up and down between block ends
        dist = make_distribution(parse_spec(spec_text))
        sandwich = _sandwich(dist, float(n), BINOMIAL)

        def closes(K):
            lo, hi = sandwich.bracket(K)
            return n * max(hi - lo, math.ulp(hi)) <= eps or hi - lo <= math.ulp(hi)

        iv = tn(dist, n, eps)
        ends = _block_ends(iv.terms_used)
        assert ends[-1] == iv.terms_used and closes(iv.terms_used)
        earlier = [K for K in ends[:-1] if sandwich.convex(K + 0.5)]
        assert earlier and not any(closes(K) for K in earlier)

    @pytest.mark.parametrize("n", [1000, 223872, 89125094, 10 ** 8])
    def test_logpower_stops_where_f4_turns_nonnegative(self, logpower2, n):
        # at eps = 1e-9 the tail closes at the first block end where the
        # second-order bracket holds, f'''' >= 0 beyond it
        c = logpower2.norm_constant
        fourth = lambda K: zoo._logpower_fourth_from(c, 2.0, 2, float(n), K + 0.5, BINOMIAL)  # noqa: E731
        iv = tn(logpower2, n, 1e-9)
        assert iv.trunc_error <= 1e-9 and fourth(iv.terms_used)
        assert not any(fourth(K) for K in _block_ends(iv.terms_used)[:-1])

    @pytest.mark.parametrize("n, ceiling", [(1000, 1024), (10 ** 6, 31744), (10 ** 8, 916480)])
    def test_logpower_terms_ceilings(self, logpower2, n, ceiling):
        # the first-order sandwich summed 31,744, 654,336 and 3,537,920 terms
        iv = tn(logpower2, n)
        assert iv.terms_used <= ceiling and iv.trunc_error <= 1e-9

    def test_memory_stays_below_16_mib(self, logpower2):
        # blocks that grew to 2^21 values peaked at 112 MiB, in 16 MiB arrays
        tracemalloc.start()
        try:
            tn(logpower2, 10 ** 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_direct_power_above_0_99(self):
        mp = pytest.importorskip("mpmath")
        p = np.array([0.995, 0.5, 0.005])
        for n in (10.0, 100.0):
            L, big = BINOMIAL.log_weight(p)
            w = tail_index._terms(L, big, n, 1.0, L)
            with mp.workdps(30):
                want = [(1 - mp.mpf(float(q))) ** n for q in p]
            # exp(n log1p(-p)) is 4e-14 off at p = 0.995, n = 100
            assert abs(w[0] - float(want[0])) <= 1e-15 * float(want[0])
            assert all(abs(got - float(x)) <= 1e-13 * float(x) for got, x in zip(w[1:], want[1:]))
        dist = make_distribution(parse_spec("finite:p=0.995;0.005"))
        for n in (1, 10, 100, 1000):
            with mp.workdps(30):
                want = n * sum(mp.mpf(q) * (1 - mp.mpf(q)) ** n for q in (0.995, 0.005))
            assert tn(dist, n).value == pytest.approx(float(want), rel=1e-13)


class TestElementaryInequalities:
    @given(st.floats(min_value=0.0, max_value=0.999))
    def test_one_minus_x_bound(self, x):
        assert 1.0 - x >= math.exp(-x / (1.0 - x)) - 1e-15

    @given(st.floats(min_value=1e-12, max_value=0.5, exclude_max=True))
    def test_reciprocal_bound(self, x):
        assert 1.0 / (1.0 - x) < 1.0 + 2.0 * x + 1e-15

    @given(
        st.floats(min_value=1e-9, max_value=1.0, exclude_max=True),
        st.integers(min_value=1, max_value=10 ** 6),
    )
    def test_unimodal_term_bound(self, p, n):
        # every summand n p (1-p)^n stays below the mode value, which is < 1/e
        term = n * p * math.exp(n * math.log1p(-p))
        peak = (n / (n + 1.0)) ** (n + 1)
        assert term <= peak * (1.0 + 1e-9)
        assert peak < E_INV

    def test_finite_support_ceiling(self, uniform10):
        # consequence: t_n < K/e for support size K
        for n in (1, 5, 9, 50):
            assert tn(uniform10, n).value < 10 * E_INV


class TestScaledPair:
    @pytest.mark.parametrize("n", [10 ** 4, 10 ** 6, 10 ** 8])
    def test_members_are_certified_series(self, power2, n):
        # each member is its whole series, not a shared truncated prefix:
        # n^{1/2} times the first is t_n, and the second is em_gap's sum
        a, b = scaled_pair(power2, n, 0.5)
        assert _brackets(tn(power2, n), a * math.sqrt(n))
        assert em_gap(power2, n).lattice_sum == b

    @pytest.mark.parametrize("n", [10 ** 4, 10 ** 6])
    def test_logpower_members_are_certified_series(self, logpower2, n):
        a, _ = scaled_pair(logpower2, n, 0.5)
        assert _brackets(tn(logpower2, n), a * math.sqrt(n))

    def test_poisson_member_matches_mpmath(self, power2):
        mp = pytest.importorskip("mpmath")
        n, K = 10 ** 4, 2000
        with mp.workdps(30):
            c, lam = 6 / mp.pi ** 2, mp.mpf(2)
            f = lambda x: c * x ** -lam * mp.exp(-n * c * x ** -lam)  # noqa: E731
            head = mp.fsum(f(mp.mpf(k)) for k in range(1, K + 1))
            # exact tail integral over [K, inf), less f(K)/2 and four
            # Euler-Maclaurin terms: the sum over k > K
            tail = c ** (1 / lam) / lam * mp.mpf(n) ** (1 / lam - 1) * mp.gammainc(
                1 - 1 / lam, 0, n * c * mp.mpf(K) ** -lam)
            tail -= f(mp.mpf(K)) / 2 + mp.fsum(
                mp.bernoulli(2 * j) / mp.factorial(2 * j) * mp.diff(f, K, 2 * j - 1)
                for j in range(1, 5))
            want = float(mp.sqrt(n) * (head + tail))
        # eps = 1e-9 on the t_n scale leaves 1e-13 on the sum, 1.5e-11 of b
        assert scaled_pair(power2, n, 0.5)[1] == pytest.approx(want, rel=1e-10)

    def test_series_stopped_at_the_cap_raises(self, power2):
        # at 2^50 both members stop at 2^24 terms with n trunc near 4e7
        with pytest.raises(AlphatailError, match=r"n = 1125899906842624 .* above eps = 1e-09"):
            scaled_pair(power2, 2 ** 50, 0.5)
        assert scaled_pair(power2, 2 ** 47, 0.5) == (0.6909882989426693, 0.6909882989426709)

    def test_width_floor_is_not_a_miss(self, logpower2):
        # eps = 1e-12 stops at the one-ulp floor, before the cap: no raise
        assert tn(logpower2, 10 ** 8, eps=1e-12).terms_used < tail_index.DEFAULT_MAX_TERMS
        # the first member is t_n / 1e4 within 1e-15 relative of LOGPOWER_REFS
        assert scaled_pair(logpower2, 10 ** 8, 0.5, eps=1e-12) == (363.96349073427837, 363.9634908712446)

    def test_power_agreement_at_1e6(self, power2):
        a, b = scaled_pair(power2, 10 ** 6, 0.5)
        assert abs(a - b) / b < 0.01

    def test_uniform_both_vanish(self, uniform2):
        a, b = scaled_pair(uniform2, 200, 0.5)
        assert a < 1e-20 and b < 1e-20

    def test_geometric_agreement(self, geom_e):
        # frozen from a direct evaluation; the two sums track each other to
        # a few parts in 1e3 by n=1e3 and tighten as n grows
        for n, tol in ((10 ** 3, 5e-3), (10 ** 4, 5e-4)):
            a, b = scaled_pair(geom_e, n, 0.5)
            assert a > 0 and b > 0
            assert abs(a - b) / b < tol

    def test_delta_validation(self, power2):
        with pytest.raises(InvalidParams):
            scaled_pair(power2, 100, 0.0)
        with pytest.raises(InvalidParams):
            scaled_pair(power2, 100, 1.0)


class TestPowerTailLimit:
    def test_known_values(self):
        # Gamma(1/2) = sqrt(pi) exactly
        assert power_tail_limit(1.0, 2.0) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-13)
        assert power_tail_limit(6 / math.pi ** 2, 2.0) == pytest.approx(0.6909882989426709, rel=1e-12)
        assert power_tail_limit(1.0, 10.0) == pytest.approx(0.10686287021193192, rel=1e-12)

    def test_independent_gamma_oracle(self):
        # library cross-check: mpmath's gamma vs the libm route used inside
        mp = pytest.importorskip("mpmath")
        for lam in (1.5, 2.0, 3.0, 10.0):
            with mp.workdps(30):
                want = float(mp.gamma(1 - 1 / mp.mpf(lam))) / lam
            assert power_tail_limit(1.0, lam) == pytest.approx(want, rel=1e-12)

    def test_scaling_is_n_to_the_minus_one_over_lambda_times_t_n(self):
        # the limit is that of n^{1-1/lam} zeta_n = n^{-1/lam} t_n; at
        # lam = 1.5 and n = 1e8 that is 2.2e-9 from it, while
        # n^{1/lam} zeta_n is 437 and still growing
        dist = make_distribution(parse_spec("power:lambda=1.5"))
        n = 10 ** 8
        t = tn(dist, n).value
        limit = power_tail_limit(dist.norm_constant, 1.5)
        assert abs(t * n ** (-1 / 1.5) / limit - 1.0) < 5e-9
        assert t / n * n ** (1 / 1.5) > 400

    def test_validation(self):
        with pytest.raises(InvalidParams):
            power_tail_limit(1.0, 1.0)
        with pytest.raises(InvalidParams):
            power_tail_limit(0.0, 2.0)


class TestOscillation:
    def test_state_examples(self, geom_e, geom2):
        st10 = oscillation_state(geom_e, 10)
        assert st10.k_star == 2
        assert st10.c_of_n == pytest.approx(10 * (math.e - 1) * math.exp(-2), rel=1e-12)
        st7 = oscillation_state(geom2, 7)
        assert st7.k_star == 3
        assert st7.c_of_n == pytest.approx(7 / 8, rel=1e-12)

    def test_sandwich_over_grid(self, geom_e):
        n = 10
        while n <= 10 ** 5:
            state = oscillation_state(geom_e, n)
            lower = n / (n + 1.0)
            assert lower * (1 - 1e-12) <= state.c_of_n <= math.e * lower * (1 + 1e-12)
            assert E_INV < state.c_of_n < math.e
            n = int(n * 1.37) + 1

    def test_power_state(self, power2):
        state = oscillation_state(power2, 1000)
        c = power2.norm_constant
        assert power2.prob(state.k_star) >= 1 / 1001 > power2.prob(state.k_star + 1)
        assert state.c_of_n == pytest.approx(1000 * c * state.k_star ** -2.0, rel=1e-12)

    def test_finite_rejected(self, uniform2):
        with pytest.raises(FiniteSupport):
            oscillation_state(uniform2, 10)

    @pytest.mark.parametrize("spec_text", [
        "geometric:a=2", "geometric:a=1.01", "geometric:a=100", "power:lambda=1.5",
        "gaussian:lambda=1", "tilted:lambda=1,r=-1", "logpower:lambda=2,k0=2",
    ])
    def test_k_star_straddles_the_threshold(self, spec_text):
        dist = make_distribution(parse_spec(spec_text))
        rng = random.Random(spec_text)
        for n in sorted({int(10 ** rng.uniform(0, 15)) for _ in range(40)}):
            if dist.prob(1) < 1.0 / (n + 1):
                continue
            k = oscillation_state(dist, n).k_star
            assert dist.prob(k) >= 1.0 / (n + 1) > dist.prob(k + 1), n

    def test_profile_near_one(self):
        assert oscillation_t(1.0) == pytest.approx(1.0, abs=1e-3)
        # frozen from the series evaluation at cutoff 1e-16
        assert oscillation_t(1.0) == pytest.approx(1.0006303403430736, rel=1e-12)

    def test_profile_positive_and_nonconstant(self):
        grid = np.linspace(1.0, math.e, 1000)
        vals = np.array([oscillation_t(float(c)) for c in grid])
        assert np.all(vals > 0)
        assert vals.max() - vals.min() > 1e-4

    def test_profile_matches_direct_index(self, geom_e):
        for n in (10 ** 5, 3 * 10 ** 5, 10 ** 6):
            state = oscillation_state(geom_e, n)
            direct = tn(geom_e, n, eps=1e-9).value
            assert abs(direct - oscillation_t(state.c_of_n)) < 5e-3

    def test_band_ceiling_value(self):
        # e^2 * t(1), frozen from the series
        assert geometric_band_ceiling() == pytest.approx(7.39371371908704, rel=1e-10)


class TestEmGap:
    def test_gap_bounded(self, power2):
        for n in (10 ** 4, 10 ** 6):
            r = em_gap(power2, n)
            assert abs(r.lattice_sum - r.integral) <= r.bound

    def test_mode_value_closed_form(self, power2):
        for n in (10 ** 4, 10 ** 6):
            r = em_gap(power2, n)
            assert r.f_at_mode == pytest.approx(1.0 / (math.e * math.sqrt(n)), rel=1e-12)

    def test_integral_approaches_gamma_limit(self, power2):
        r = em_gap(power2, 10 ** 8)
        want = power_tail_limit(power2.norm_constant, 2.0)
        assert r.integral == pytest.approx(want, rel=1e-3)

    def test_only_power(self, geom2):
        with pytest.raises(InvalidParams):
            em_gap(geom2, 100)

    @pytest.mark.parametrize("n", [2 ** 50, 2 ** 60])
    def test_series_stopped_at_the_cap_raises(self, power2, n):
        with pytest.raises(AlphatailError, match=f"n = {n} stops at max_terms = 33554432"):
            em_gap(power2, n)


class TestSeries:
    def test_schedule_evaluation(self, geom2):
        sched = [2 ** j for j in range(4, 13)]
        series = evaluate_series(geom2, sched)
        assert series.schedule == sched
        assert len(series.points) == len(sched)
        assert all(p.n == n for p, n in zip(series.points, sched))

    def test_schedule_must_increase(self, geom2):
        with pytest.raises(InvalidParams):
            evaluate_series(geom2, [16, 16, 32])


def _digest(points) -> str:
    """sha256 of one "n value trunc_error terms_used" line per point, the
    floats in hex."""
    text = "\n".join(f"{iv.n} {iv.value.hex()} {iv.trunc_error.hex()} {iv.terms_used}"
                     for iv in points)
    return hashlib.sha256(text.encode()).hexdigest()


# Schedules with their points' digest and summed terms_used, computed one
# point at a time with ``tn`` before schedules were evaluated in one sweep:
# the benchmark's thick-tail verdict schedules for seeds 1 and 201
# (eps 1e-6, max_terms 2^22), and the CLI schedule 1000:100000000:x3/2
# (29 points, eps 1e-9, the default cap).  The log-power rows were computed
# again once those tails closed with the second-order bracket; every point
# lies within 2 ulps of its 30-digit reference (bench/refs.py).
CLI_SCHEDULE = _parse_schedule("1000:100000000:x3/2")
PINNED_SCHEDULES = [pytest.param(*row, id=row_id) for row_id, row in [
    ("power2-seed1", ("power:lambda=2", [5012, 19953, 79433, 316228, 1258925, 5011872, 19952623, 79432823],
     1e-6, 1 << 22, "2019b0529f4a0a895400c84508434e84580b5217fb24ee5c41014fb38d01008c", 83968)),
    ("power1.5-seed1", ("power:lambda=1.5", [5623, 22387, 89125, 354813, 1412538, 5623413, 22387211, 89125094],
     1e-6, 1 << 22, "45ee87d01edbe696abae3c46ed3305480e20c3addb06eea0ee0bf9f3bc046649", 364544)),
    ("logpower-seed1", ("logpower:lambda=2,k0=2", [3981, 15849, 63096, 251189, 1000000, 3981072, 15848932, 63095734],
     1e-6, 1 << 22, "1cabaee16b64c9915c79867dcdc99636bb8542453f4c277886c2b39f1ac1b0dc", 630784)),
    ("power2-seed201", ("power:lambda=2", [5623, 22387, 89125, 354813, 1412538, 5623413, 22387211, 89125094],
     1e-6, 1 << 22, "416fdd4b551d2cf0b6bcf62bf590a41ad00125e9802c7afa0c08af1a810a73ed", 83968)),
    ("power1.5-seed201", ("power:lambda=1.5", [2512, 10000, 39811, 158489, 630957, 2511886, 10000000, 39810717],
     1e-6, 1 << 22, "da707af9d0ce93362070ba8abfeff2a13382a762f1fba622a82a7fb9d6fbd447", 290816)),
    ("logpower-seed201", ("logpower:lambda=2,k0=2", [5012, 19953, 79433, 316228, 1258925, 5011872, 19952623, 79432823],
     1e-6, 1 << 22, "4cea869af96020a95ff64a80f4867456c78fc7beb2e774c53c9073b9f935fa0a", 827392)),
    ("power1.5-cli", ("power:lambda=1.5", CLI_SCHEDULE, 1e-9, 1 << 24,
     "3c7f511870afd301aea85d77d298c65527b0b51afbc9c2cf34dba047f9e6a8d6", 14486528)),
    ("logpower-cli", ("logpower:lambda=2,k0=2", CLI_SCHEDULE, 1e-9, 1 << 24,
     "626cfd84c70a66f2af4818a9461e738c0a7ac4ee0f5011eeac78a0e0ffd403ec", 3007488)),
]]
# unsorted, with duplicates, from the first block to far past the convex onset
MIXED_NS = [7, 3, 10 ** 6, 3, 250, 3 * 10 ** 7, 40_000, 7]


class TestScheduleSweep:
    @pytest.mark.parametrize("spec_text, schedule, eps, max_terms, digest, terms", PINNED_SCHEDULES)
    def test_pinned_points(self, spec_text, schedule, eps, max_terms, digest, terms):
        dist = make_distribution(parse_spec(spec_text))
        points = evaluate_series(dist, schedule, eps, max_terms).points
        assert sum(iv.terms_used for iv in points) == terms
        assert _digest(points) == digest

    @pytest.mark.parametrize("spec_text", [format_spec(s) for s in catalog()])
    def test_schedule_equals_single_points(self, spec_text):
        dist = make_distribution(parse_spec(spec_text))
        args = (1e-9, tail_index.DEFAULT_MAX_TERMS)
        swept = {kernel: tail_index._series_points(dist, [float(n) for n in MIXED_NS], *args, kernel)
                 for kernel in (BINOMIAL, POISSON)}
        for kernel, points in swept.items():
            assert points == [tail_index._series_points(dist, [float(n)], *args, kernel)[0]
                              for n in MIXED_NS]
        for n, zb, zp in zip(MIXED_NS, swept[BINOMIAL], swept[POISSON]):
            factor = float(n) ** 0.5
            assert scaled_pair(dist, n, 0.5) == (factor * zb[0], factor * zp[0])
            assert zeta1(dist, n) == IndexValue(n, *zb)
        ns = sorted(set(MIXED_NS))
        assert evaluate_series(dist, ns).points == [tn(dist, n) for n in ns]

    def test_huge_n_mixed_in(self, diffusion14):
        probes = [r.n_probe for r in diffusion14.runs] + [r.m_probe for r in diffusion14.runs]
        ns = sorted(set(probes + [16 * 4 ** j for j in range(12)]))
        assert any(n > 2 ** 53 for n in ns) and any(n <= 2 ** 53 for n in ns)
        assert evaluate_series(diffusion14, ns).points == [tn(diffusion14, n) for n in ns]

    def test_memory_of_one_block(self):
        # the sweep holds one block's p, L and scratch, however many points
        dist = make_distribution(parse_spec("logpower:lambda=2,k0=2"))
        peaks = []
        for run in (lambda: tn(dist, CLI_SCHEDULE[-1]), lambda: evaluate_series(dist, CLI_SCHEDULE)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2 * 2 ** 20


class TestHugeN:
    def test_diffusion_probe_values(self, diffusion14):
        run7 = next(r for r in diffusion14.runs if r.stage == 7)
        iv = tn(diffusion14, run7.n_probe)
        floor = (run7.d + 1) * math.exp(
            2.0 ** run7.run_exponent * math.log1p(-(2.0 ** -run7.run_exponent))
            if run7.run_exponent < 500 else -1.0
        )
        assert iv.value >= floor
        assert math.isfinite(iv.value)
        assert iv.trunc_error < 1e-300

    def test_closed_form_rejects_huge_n(self, geom2):
        with pytest.raises(InvalidParams):
            tn(geom2, 2 ** 100)

    def test_memory_is_that_of_the_window(self, diffusion14):
        # about 1,100 of the 65,637 levels can carry a term at n = 2^1064;
        # one float array over the whole table alone would take 513 KiB
        n = 2 ** 1064
        tn(diffusion14, n)
        tracemalloc.start()
        try:
            tn(diffusion14, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

    def test_finite_vector_at_huge_n(self, uniform2):
        # a finite vector is a level table with nothing beyond it
        for f in (tn, zeta1):
            iv = f(uniform2, 2 ** 60)
            assert iv.value == 0.0
            assert iv.trunc_error == 0.0


# Terms with exponents from -1074 to 10, subnormals and zeros of both signs
# among them; an array repeats them by drawing from the pool.
SUM_TERMS = st.one_of(
    st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True), st.integers(-1074, 10)),
    st.sampled_from([0.0, -0.0, 5e-324, 2.0 ** -1022]),
)


@st.composite
def near_ties(draw) -> np.ndarray:
    """A head just below the midpoint above its largest term, a rest that
    may or may not carry it past, and zeros that may pass the cutoff."""
    top = math.ldexp(draw(st.floats(1.0, 2.0, exclude_max=True)), draw(st.integers(-900, 10)))
    half = math.ulp(top) / 2.0
    rest = [math.ldexp(half, -draw(st.integers(55, 130))) for _ in range(draw(st.integers(0, 40)))]
    terms = [top, half - math.ldexp(half, -draw(st.integers(1, 120)))] + rest
    return np.array(draw(st.permutations(terms + [0.0] * draw(st.integers(0, 300)))))


class TestExactSum:
    @given(st.lists(SUM_TERMS, max_size=200), st.integers(0, 1800), st.integers(0, 2 ** 32 - 1))
    def test_equals_fsum(self, pool, length, seed):
        rng = np.random.default_rng(seed)
        terms = np.array(pool + (rng.choice(pool, length).tolist() if pool else []), dtype=float)
        rng.shuffle(terms)
        assert tail_index._exact_sum(terms).hex() == math.fsum(terms.tolist()).hex()

    @given(near_ties())
    def test_equals_fsum_near_a_tie(self, terms):
        assert tail_index._exact_sum(terms).hex() == math.fsum(terms.tolist()).hex()

    @pytest.mark.parametrize("head, rest", [
        # the head's sum is 1 + 2^-53 - 2^-106; the rest carries the total
        # to 1 + 2^-53 + 2^-106, past the midpoint
        ([1.0, 2.0 ** -53 - 2.0 ** -106], [2.0 ** -105]),
        # the head's sum 1 + 2^-53 - 2^-107 - 2^-112 lies less than the rest
        # below the midpoint, but its excess over 1 rounds to 2^-53 - 2^-106
        ([1.0, 2.0 ** -53 - 2.0 ** -59, 2.0 ** -59 - 2.0 ** -107 - 2.0 ** -112],
         [2.0 ** -107 + 2.0 ** -111]),
    ])
    def test_rest_decides_the_rounding(self, head, rest):
        # the head alone rounds to 1.0, the whole array to 1 + 2^-52
        terms = np.array(head + rest + [0.0] * 200)
        assert math.fsum(head) == 1.0
        assert tail_index._exact_sum(terms) == math.fsum(terms.tolist()) == 1.0 + 2.0 ** -52

    @pytest.mark.parametrize("terms", [[], [0.0] * 200, [-0.0] * 200, [1.0, math.inf] * 100,
                                       [1.0, math.nan] * 100, [2.0 ** -1074] * 300])
    def test_edge_arrays(self, terms):
        terms = np.array(terms, dtype=float)
        assert tail_index._exact_sum(terms).hex() == math.fsum(terms.tolist()).hex()


# The full-table sums that summing only the live levels must reproduce bit for
# bit: every level of the table enters, including those whose term is 0.

def full_table_sum(dist, n: int, kernel: str) -> float:
    """fsum of counts * p * w(p) over every level, p = exp(ln2 * log2 p)."""
    l2, counts = dist.level_arrays()
    with np.errstate(under="ignore", divide="ignore", over="ignore"):
        p = np.exp(math.log(2.0) * l2)
        if kernel == "binomial":
            w = np.exp(n * np.log1p(-p))
            big = p > 0.99
            w[big] = np.power(1.0 - p[big], n)
        else:
            w = np.exp(-n * p)
        return math.fsum((counts * p * w).tolist())


def full_table_huge_t(dist, n: int) -> float:
    """n * sum counts * p (1-p)^n over every level, in log space."""
    ln_n = math.log(n)
    l2, counts = dist.level_arrays()
    ln_p = math.log(2.0) * l2
    with np.errstate(under="ignore", divide="ignore", over="ignore"):
        pv = np.exp(np.maximum(ln_p, -690.0))
        ln_neg_l1p = np.where(ln_p > -690.0, np.log(-np.log1p(-pv)), ln_p)
        z = ln_n + ln_neg_l1p
        n_log1p = np.where(z > 709.0, -np.inf, -np.exp(np.minimum(z, 709.0)))
        g = ln_n + ln_p + n_log1p
        t_terms = counts * np.exp(np.maximum(g, -746.0)) * (g > -745.0)
    return math.fsum(t_terms.tolist())


def beyond_trunc(dist) -> float:
    b = dist.beyond_prefix_log2_mass
    return 0.0 if b == -math.inf else max(2.0 ** b, 5e-324)


def float_range_ns(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return sorted({int(2.0 ** rng.uniform(0.0, 53.0)) for _ in range(count)} | {1, 2 ** 53})


# beside p = 1, whose term is 0, a lone letter carries the whole sum: a
# subnormal one (n p = 2^-1020 at n = 2^54) and one at n p = 750 at n = 2^60,
# whose term is subnormal too
LONE_LETTERS = ["finite:p=1;5e-324", "finite:p=1;6.505213034913027e-16"]
# a finite vector out of order whose small letters carry terms past n = 2^53
UNSORTED_SMALL = "finite:p=1e-300;0.5;1e-200;0.5;1e-30"


def window_edge_ns(dist) -> list[int]:
    """n past 2**53 that put a level of dist just inside and just outside
    ln(n p) = -746 and ln(n p) = ln 800: the table's smallest and largest
    finite levels and one between them, each moved 1e-9 either way."""
    l2 = np.unique(dist.level_arrays()[0])
    l2 = l2[np.isfinite(l2)]
    ns = []
    for level in (l2[0], l2[len(l2) // 2], l2[-1]):
        for target in (-746.0, math.log(800.0)):
            for rel in (-1e-9, 1e-9):
                # log2 n = target / ln 2 - log2 p, scaled by 1 + rel
                t = target / math.log(2.0) - float(level)
                a = math.floor(t)
                if a >= 53:
                    ns.append(int(2.0 ** (t - a) * (1.0 + rel) * 2.0 ** 52) << (a - 52))
    return ns


def full_table_window(dist, n: int) -> np.ndarray:
    """Positions in ``descending_levels()`` with -746 < ln(n p) < ln 800,
    from a scan of the whole table."""
    x = math.log(n) + math.log(2.0) * dist.descending_levels()[0]
    return np.flatnonzero((x > -746.0) & (x < math.log(800.0)))


class TestLevelTablesMatchFullTable:
    @pytest.mark.parametrize("spec_text", LONE_LETTERS + [
        "finite:p=0.2;0;0.5;0.3",
        "congregated:base=(geometric:a=2)",
        "pairavg:base=(geometric:a=2)",
        "diffusion:stages=14",
    ])
    def test_float_range(self, spec_text):
        dist = make_distribution(parse_spec(spec_text))
        ns = float_range_ns(11, 30) + [r.n_probe for r in dist.runs] + [r.m_probe for r in dist.runs]
        for n in (n for n in ns if n <= 2 ** 53):
            ref_b = full_table_sum(dist, n, "binomial")
            ref_p = full_table_sum(dist, n, "poisson")
            z = zeta1(dist, n)
            assert (z.value, z.trunc_error, z.terms_used) == (ref_b, beyond_trunc(dist), dist.prefix_length)
            assert tn(dist, n).value == n * ref_b
            factor = float(n) ** 0.5
            assert scaled_pair(dist, n, 0.5) == (factor * ref_b, factor * ref_p)

    @pytest.mark.parametrize("spec_text", LONE_LETTERS + [
        "finite:p=0.2;0;0.5;0.3",
        UNSORTED_SMALL,
        "congregated:base=(geometric:a=2)",
        "pairavg:base=(geometric:a=2)",
        "diffusion:stages=14",
    ])
    def test_huge_n(self, spec_text):
        dist = make_distribution(parse_spec(spec_text))
        fixed = [2 ** 53 + 1, 2 ** 54, 2 ** 60, 10 ** 300, 3 ** 700, 2 ** 1100 + 7, 2 ** 16470]
        for n in fixed + window_edge_ns(dist):
            t = full_table_huge_t(dist, n)
            assert tn(dist, n).value == t
            assert zeta1(dist, n).value == (math.exp(math.log(t) - math.log(n)) if t > 0.0 else 0.0)
            window = tail_index._huge_n_window(dist.descending_levels()[0], math.log(n))
            assert window.tolist() == full_table_window(dist, n).tolist()

    @pytest.mark.parametrize("spec_text", [
        "finite:p=1;5e-324", "congregated:base=(geometric:a=2)", "diffusion:stages=14",
    ])
    def test_window_edges_are_reached(self, spec_text):
        # the edge n really put a level within 1e-6 of each side of each end
        # of the window where the table reaches it
        dist = make_distribution(parse_spec(spec_text))
        l2 = dist.level_arrays()[0]
        sides = set()
        for n in window_edge_ns(dist):
            x = math.log(n) + math.log(2.0) * l2
            for end in (-746.0, math.log(800.0)):
                near = np.abs(x - end) < 1e-6
                sides |= {(end, bool(v > end)) for v in x[near]}
        ends = (math.log(800.0),) if spec_text.startswith("finite") else (-746.0, math.log(800.0))
        assert sides == {(end, above) for end in ends for above in (False, True)}

    def test_diffusion_run_probes(self, diffusion14):
        probes = [r.n_probe for r in diffusion14.runs] + [r.m_probe for r in diffusion14.runs]
        assert len(probes) == 28 and sum(n > 2 ** 53 for n in probes) == 22
        for n in probes:
            if n <= 2 ** 53:
                z = full_table_sum(diffusion14, n, "binomial")
                t = n * z
            else:
                t = full_table_huge_t(diffusion14, n)
                z = math.exp(math.log(t) - math.log(n)) if t > 0.0 else 0.0
            iv = tn(diffusion14, n)
            assert (iv.value, iv.terms_used) == (t, diffusion14.prefix_length)
            assert zeta1(diffusion14, n).value == z
