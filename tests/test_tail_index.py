"""Series evaluation, truncation certificates, oscillation and gap machinery."""

import bisect
import collections
import copy
import hashlib
import itertools
import math
import pickle
import random
import sys
import threading
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
    sample,
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

    @pytest.mark.parametrize("max_terms", [-5, 0, 1.5, 64.0, math.nan, "64", None])
    def test_max_terms_must_be_a_positive_integer(self, geom2, logpower2, max_terms):
        # max_terms = -5 returned terms_used = -5 on geometric:a=2 and ended in
        # a bare ValueError on log-power; 1.5 in a bare TypeError
        for dist in (geom2, logpower2):
            for call in (lambda: tn(dist, 100, max_terms=max_terms),
                         lambda: zeta1(dist, 100, max_terms=max_terms),
                         lambda: evaluate_series(dist, [100, 200], max_terms=max_terms)):
                with pytest.raises(InvalidParams, match="max_terms must be a positive integer"):
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

    @pytest.mark.parametrize("eps", [-1.0, 0.0, math.nan, math.inf])
    def test_eps_checked_past_the_float_range(self, diffusion14, eps):
        # past 2**53, and on an empty schedule, no point reads eps: these
        # returned a value before eps was checked at the top of each call
        n = 1 << 60
        for call in (lambda: tn(diffusion14, n, eps=eps), lambda: zeta1(diffusion14, n, eps=eps),
                     lambda: evaluate_series(diffusion14, [n, 2 * n], eps=eps),
                     lambda: evaluate_series(diffusion14, [], eps=eps)):
            with pytest.raises(InvalidParams, match="eps must be positive and finite"):
                call()

    def test_eps_sets_no_stop_past_the_float_range(self, diffusion14):
        # past 2**53 the whole table is summed, whatever the target
        n = 1 << 60
        assert tn(diffusion14, n, eps=1e-3) == tn(diffusion14, n)
        assert zeta1(diffusion14, n, eps=1e3) == zeta1(diffusion14, n)

    def test_numpy_integers_are_integers(self, geom2):
        assert tn(geom2, np.int64(100)) == tn(geom2, 100)
        assert evaluate_series(geom2, np.array([16, 64])) == evaluate_series(geom2, [16, 64])

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
        ("power:lambda=1.5", 1 << 20), ("logpower:lambda=2,k0=2", 1 << 10)])
    def test_honest_trunc_when_capped(self, spec_text, cap):
        # neither tail can certify 1e-12 at n=1e6 within its cap: the power
        # sandwich is still too wide there, and so is the log-power bracket
        # at 1,024, where t = (n+1) p is near 10; the reported remainder
        # must say so rather than pretend
        iv = tn(make_distribution(parse_spec(spec_text)), 10 ** 6, eps=1e-12, max_terms=cap)
        assert iv.trunc_error > 1e-12
        assert iv.terms_used == cap

    @pytest.mark.parametrize("spec_text, n, eps", [
        ("geometric:a=2", 10, 1.0), ("tilted:lambda=1,r=1", 10, 1.0), ("power:lambda=2", 10 ** 6, 1e5)])
    def test_the_cap_bracket_does_not_read_eps(self, spec_text, n, eps):
        # at the cap a tail with no open sandwich closes on series_tail's cap
        # bracket, lower end w(p_{K+1}) times the lower tail mass, whether or
        # not its upper end alone meets eps; where it did, the lower end was
        # 0 (geometric:a=2 at n = 10: trunc_error 5.4e-19, now 9.6e-34)
        dist = make_distribution(parse_spec(spec_text))
        met, missed = (tn(dist, n, eps=e, max_terms=64) for e in (eps, 1e-300))
        assert met == missed and met.terms_used == 64
        lo, hi = dist.series_tail(float(n), BINOMIAL)(64)
        assert 0.0 < lo <= hi and met.trunc_error == n * max(hi - lo, math.ulp(hi)) <= eps

    @pytest.mark.parametrize("call", [tn, zeta1, lambda d, n, eps: evaluate_series(d, [n], eps)])
    def test_infinite_eps_is_refused(self, geom2, call):
        # eps = inf is no target: it would take every bracket as the cap's
        with pytest.raises(InvalidParams, match="eps must be positive and finite"):
            call(geom2, 10, eps=math.inf)

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
# per row, a max_terms below the first index K where t = (n+1) p_{K+1} falls
# to 4, where the log-power bracket opened before it was open at every K
LOGPOWER_SHORT_CAPS = {1000: 1 << 3, 223872: 1 << 8, 10 ** 8: 1 << 16}


BINOMIAL, POISSON = zoo.Kernel.BINOMIAL, zoo.Kernel.POISSON


def _sandwich(dist: Distribution, n: float, kernel):
    """The bracket ``tail_index`` closes dist's tail with at n: K -> [lo, hi]
    on the tail beyond K, None where none is worth computing."""
    return dist.series_tail(n, kernel)


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
    def test_logpower_brackets_reference_at_any_cap(self, logpower2, n, ref):
        iv = tn(logpower2, n, eps=1e-9)
        assert 0.0 < iv.trunc_error <= 1e-9
        assert iv.terms_used <= 1024
        assert _brackets(iv, float(ref))
        # a cap short of where t falls to 4 ends in the bracket at the cap,
        # open at every K, not in the lower term w(p_{K+1}) * (lower tail
        # mass), and that bracket holds too
        cap = LOGPOWER_SHORT_CAPS[n]
        assert _sandwich(logpower2, float(n), BINOMIAL)(cap) is not None
        capped = tn(logpower2, n, eps=1e-9, max_terms=cap)
        assert capped.terms_used == min(cap, iv.terms_used)
        assert _brackets(capped, float(ref))

    def test_logpower_width_is_never_zero(self, logpower2):
        # deep in the tail the sandwich's ends round to one float (at
        # n = 1e9 and 2^23 terms they are equal); the width is floored at
        # one ulp of the upper end instead of certifying zero
        assert 0.0 < tn(logpower2, 10 ** 8).trunc_error <= 1e-9
        assert tn(logpower2, 10 ** 9, max_terms=1 << 23).trunc_error > 0.0

    def test_logpower_stops_at_the_width_floor(self, logpower2):
        # at n = 3e8, eps = 1e-9 lies below n ulps of the tail: the sum stops
        # once the closed bracket is one ulp wide, at K = 0, instead of
        # running to the cap (n ulps of the bracket's upper end at the cap
        # are 1.04e-9, still above eps, so no block end can certify it)
        n = 3 * 10 ** 8
        iv = tn(logpower2, n, eps=1e-9)
        assert (iv.terms_used, iv.trunc_error) == (0, 2.0816681711721685e-09)
        for cap in (1 << 22, 1 << 24):
            other = tn(logpower2, n, eps=1e-9, max_terms=cap)
            assert max(iv.value, other.value) <= min(iv.upper, other.upper)

    @pytest.mark.parametrize("n, terms", [(160_000_000, 3_603_456), (199_526_231, 3_537_920),
                                          (250_000_000, 3_472_384)])
    def test_logpower_sums_past_a_floor_the_cap_lowers(self, logpower2, n, terms):
        # the one-ulp floor is above eps at first, but n ulps of the upper
        # end at the cap are not: the sum goes on to the first block end
        # where the bracket meets eps, its upper end by then below 2^-5
        # (stopping at the floor left 1.11e-9 to 1.73e-9)
        iv = tn(logpower2, n, eps=1e-9)
        assert iv.terms_used == terms and iv.trunc_error <= 1e-9

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


def _logpower_t(c: float, lam: float, k0: int, n: int, kernel, K: float) -> float:
    """t = (n+1) p for (1-p)^n, n p for e^{-np}, at x = K+1."""
    j = K + k0
    return ((n + 1) if kernel is BINOMIAL else n) * c / (j * math.log(j) ** lam)


def _logpower_y_at(c: float, lam: float, k0: int, n: int, kernel, t: float) -> float:
    """The y >= 1 at which t = (n+1) p(y) or n p(y), p = c/(j ln^lam j),
    j = y+k0-1, equals t: Newton's method on u + lam ln u = ln(c m/t),
    u = ln j, m = n+1 or n, from u = ln k0, at or below the root; the left
    side is concave and rises with u, so the steps rise to the root."""
    target = math.log(c * ((n + 1) if kernel is BINOMIAL else n) / t)
    u = math.log(k0)
    for _ in range(50):
        u -= (u + lam * math.log(u) - target) / (1.0 + lam / u)
    return math.exp(u) - k0 + 1.0


def _logpower_block_end_at(c: float, lam: float, k0: int, n: int, kernel, t: float) -> int:
    """The block end K (``zoo.block_end``) whose t at K+1 is nearest t in
    ratio, among those from 64 on."""
    y = _logpower_y_at(c, lam, k0, n, kernel, t)
    ends = _block_ends(int(y) + 1)
    return min(ends, key=lambda K: abs(math.log(_logpower_t(c, lam, k0, n, kernel, K) / t)))


def _logpower_f(mp, c: float, lam: float, k0: int, n: int, kernel):
    """f(x) = p w(p), p = c/(j ln^lam j), j = x+k0-1, in mpmath, and w - 1."""
    m_c, m_lam = mp.mpf(c), mp.mpf(lam)
    if kernel is BINOMIAL:
        w1 = lambda q: mp.expm1(n * mp.log1p(-q))  # noqa: E731
    else:
        w1 = lambda q: mp.expm1(-n * q)  # noqa: E731
    p = lambda x: m_c / ((x + k0 - 1) * mp.log(x + k0 - 1) ** m_lam)  # noqa: E731
    return (lambda x: p(x) * (1 + w1(p(x)))), w1


def _logpower_integral_mp(mp, c: float, lam: float, k0: int, n: int, kernel, y):
    """integral_y^inf p w(p) dx at the working precision, in u = ln j:
    c u^-lam (w(p) - 1) decays like e^-u, and the rest integrates
    exactly.  The quadrature is cut where t = 1e4, 1e3, ..., 0.01, so that
    the fall of w from 0 to 1 lies inside a few intervals."""
    _, w1 = _logpower_f(mp, c, lam, k0, n, kernel)
    m_c, m_lam = mp.mpf(c), mp.mpf(lam)
    u0 = mp.log(mp.mpf(y) + k0 - 1)
    cuts = [math.log(_logpower_y_at(c, lam, k0, n, kernel, t) + k0 - 1.0)
            for t in (1e4, 1e3, 100.0, 10.0, 1.0, 0.1, 0.01) if t < _logpower_t(c, lam, k0, n, kernel, y - 1.0)]
    rest = mp.quad(lambda u: m_c * u ** -m_lam * w1(m_c * mp.exp(-u) * u ** -m_lam),
                   [u0] + sorted(mp.mpf(u) for u in cuts if u > u0) + [mp.inf])
    return m_c * u0 ** (1 - m_lam) / (m_lam - 1) + rest


def _logpower_tail_mp(c: float, lam: float, k0: int, n: int, kernel, K: int, head: int = 200):
    """sum_{k>K} p_k w(p_k) at 40 digits: the terms up to M = K + head, then
    the integral from M, less f(M)/2 and three Euler-Maclaurin terms at M."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        f, _ = _logpower_f(mp, c, lam, k0, n, kernel)
        M = K + head
        em = f(mp.mpf(M)) / 2 + mp.fsum(mp.bernoulli(2 * i) / mp.factorial(2 * i) * mp.diff(f, M, 2 * i - 1)
                                        for i in range(1, 4))
        return (mp.fsum(f(mp.mpf(k)) for k in range(K + 1, M + 1))
                + _logpower_integral_mp(mp, c, lam, k0, n, kernel, M) - em)


def _logpower_bracket_holds(c: float, lam: float, k0: int, n: int, kernel, K: int) -> None:
    """sum_{k>K} p_k w(p_k) in 40 digits lies in the bracket at K, within 4
    ulps of rounding.  Where the bracket is wider than that, the sum sits
    near its centre (the Euler-Maclaurin remainder is far below the width
    W: 2.2% of it off the centre at K = 0 and n = 1, where j = 2, and under
    0.8% from K = 1 on)."""
    lo, hi = zoo._logpower_bracket(c, lam, k0, float(n), kernel, K)
    want = _logpower_tail_mp(c, lam, k0, n, kernel, K)
    slack = 4.0 * math.ulp(hi)
    assert lo - slack <= want <= hi + slack, K
    if hi - lo > 1e3 * slack:
        where = float((want - lo) / (hi - lo))
        assert abs(where - 0.5) < (0.03 if K == 0 else 0.01), K


# (n, lam, kernel) for the bracket at K = 0 and the stated bounds
LOGPOWER_NS = [1, 1000, 10 ** 5, 10 ** 6, 10 ** 8]
# (lam, k0, kernel, n, t): the block ends nearest these t at K+1, from
# 0.005 to t(1) near 1e8, each with its 3K+7
LOGPOWER_T_SWEEP = [pytest.param(lam, k0, kernel, n, t, id=f"{lam}-{k0}-{kernel.name.lower()}-{n}-{t}")
                    for lam, k0, kernel, n in [(1.5, 2, BINOMIAL, 10 ** 8), (2.0, 2, BINOMIAL, 10 ** 8),
                                               (3.0, 5, BINOMIAL, 10 ** 8), (2.0, 5, POISSON, 10 ** 6)]
                    for t in (1e4, 40.0, 8.0, 4.0, 0.5, 0.005)]


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
        # from t = 4, where the series takes over, down to t = 1/2 and far
        # past it (at n = 1 only the t below t(1)): both ends lie within
        # 2e-15 relative of the 30-digit integral (measured: 6e-16 at most);
        # past t = 4 they drift, to 1.2e-14 at t = 8 and 1.7e-11 at t = 16
        mp = pytest.importorskip("mpmath")
        c, k0 = 0.6, 2
        for t in (4.0, 2.0, 1.0, 0.5, 0.005):
            if t >= _logpower_t(c, lam, k0, n, kernel, 0):
                continue
            y = _logpower_y_at(c, lam, k0, n, kernel, t)
            assert _logpower_t(c, lam, k0, n, kernel, y - 1.0) == pytest.approx(t, rel=1e-12)
            lo, hi = zoo._logpower_tail_integral(c, lam, k0, float(n), y, kernel)
            with mp.workdps(30):
                want = float(_logpower_integral_mp(mp, c, lam, k0, n, kernel, y))
            assert max(abs(lo - want), abs(hi - want)) <= 2e-15 * want, t

    @pytest.mark.parametrize("n, lam, kernel", _kernel_cases([1000, 10 ** 6, 10 ** 8], [1.5, 2.0, 3.0]))
    def test_integral_at_any_t_contains_mpmath(self, n, lam, kernel):
        # past t = 4 the integral adds Gauss-Legendre from t = 40 (or t(a))
        # to 4 and the closed bound before t = 40; its bracket holds the
        # 30-digit integral within 4 ulps, from t(a) = 4.5 to t(1)
        mp = pytest.importorskip("mpmath")
        c, k0 = 0.6, 2
        m = float(n + 1 if kernel is BINOMIAL else n)
        y4 = _logpower_y_at(c, lam, k0, n, kernel, 4.0)
        for t in (None, 1e4, 100.0, 40.5, 39.5, 10.0, 4.5):
            if t is not None and t >= _logpower_t(c, lam, k0, n, kernel, 0):
                continue
            a = 1.0 if t is None else math.floor(_logpower_y_at(c, lam, k0, n, kernel, t))
            if a < 1.0 or a >= y4:
                continue
            lo, hi = zoo._logpower_integral(c, lam, k0, float(n), kernel, a, y4, m)
            with mp.workdps(30):
                want = float(_logpower_integral_mp(mp, c, lam, k0, n, kernel, a))
            assert lo - 4 * math.ulp(hi) <= want <= hi + 4 * math.ulp(hi), t

    @pytest.mark.parametrize("k0", [2, 5])
    @pytest.mark.parametrize("n, lam, kernel", _kernel_cases(LOGPOWER_NS, [1.5, 2.0, 3.0]))
    def test_bracket_at_K_0_contains_mpmath(self, n, lam, kernel, k0):
        # with no head: t(1) runs from about 1 at n = 1 to 1e8 at n = 1e8
        _logpower_bracket_holds(0.6, lam, k0, n, kernel, 0)

    @pytest.mark.parametrize("past", [False, True], ids=["K", "3K+7"])
    @pytest.mark.parametrize("lam, k0, kernel, n, t", LOGPOWER_T_SWEEP)
    def test_bracket_at_block_ends_contains_mpmath(self, lam, k0, kernel, n, t, past):
        K = _logpower_block_end_at(0.6, lam, k0, n, kernel, t)
        _logpower_bracket_holds(0.6, lam, k0, n, kernel, 3 * K + 7 if past else K)

    @pytest.mark.parametrize("K", [1, 2, 10])
    @pytest.mark.parametrize("lam", [1.5, 2.0, 3.0])
    def test_mass_bracket_contains_mpmath(self, lam, K):
        # n = 0, the tail mass, where both kernels are 1: the one-sided
        # bracket of zoo._tail_bracket at c = 1 (from K = 1, as
        # tail_mass_bound) holds the sum within 4 ulps, 0.3 to 0.7 of the
        # way up, as the Bernoulli kernel's mean 1/30 puts it
        lo, hi = zoo._tail_bracket(zoo.FamilyKind.LOG_POWER, {"lambda": lam, "k0": 2}, K)
        want = _logpower_tail_mp(1.0, lam, 2, 0, BINOMIAL, K)
        slack = 4.0 * math.ulp(hi)
        assert lo - slack <= want <= hi + slack
        assert 0.3 < float((want - lo) / (hi - lo)) < 0.7

    @pytest.mark.parametrize("n, lam, kernel, K", [
        *(pytest.param(n, lam, kernel, 0, id=f"{n}-{lam}-{kernel.name.lower()}-0")
          for n, lam, kernel in [(1, 2.0, BINOMIAL), (1000, 1.5, BINOMIAL), (1000, 3.0, POISSON),
                                 (10 ** 6, 2.0, BINOMIAL)]),
        *(pytest.param(n, lam, kernel, K, id=f"{n}-{lam}-{kernel.name.lower()}-{K}")
          for n, lam, kernel, K in [(10 ** 6, 2.0, BINOMIAL, 1024), (10 ** 6, 1.5, POISSON, 1024),
                                    (1000, 2.0, BINOMIAL, 1024), (10 ** 8, 3.0, BINOMIAL, 130048)])])
    def test_remainder_is_the_stated_bound(self, n, lam, kernel, K):
        # W, summed over the pieces of ``zoo._logpower_remainder``: j grows
        # by (j4/j)^(1/P), P = ceil(ln(j4/j)/ln 1.25), up to j4, where t = 4,
        # and [j4, inf) is one more; on each, R_k from 40-digit derivatives
        # of p at its start, t and e_k there, max(m, t) for |m - t|, L at its
        # peak on the piece and j^-4 integrated exactly
        mp = pytest.importorskip("mpmath")
        c, k0 = 0.6, 2
        m = n + 1 if kernel is BINOMIAL else n
        j = float(K + k0)
        j4 = max(_logpower_y_at(c, lam, k0, n, kernel, 4.0) + k0 - 1.0, j)
        got = zoo._logpower_remainder(c, lam, float(n), kernel, float(m), j, j4, math.inf)
        with mp.workdps(40):
            m_c, m_lam = mp.mpf(c), mp.mpf(lam)
            p = lambda x: m_c / (x * mp.log(x) ** m_lam)  # noqa: E731
            if kernel is BINOMIAL:
                L = lambda q: q * (1 - q) ** (n - 1)  # noqa: E731
            else:
                L = lambda q: q * mp.exp(-n * q)  # noqa: E731

            def C_at(x):
                d = mp.taylor(p, x, 4)
                px = d[0]
                A, R2, R3, R4 = ((-1) ** k * d[k] * mp.factorial(k) * x ** k / px for k in range(1, 5))
                t = m * px
                if kernel is BINOMIAL:
                    r = px / (1 - px)
                    e2, e3, e4 = n * r, n * (n - 1) * r ** 2, n * (n - 1) * (n - 2) * r ** 3
                else:
                    e2, e3, e4 = t, t ** 2, t ** 3
                return (R4 * max(1, t) + 6 * e3 * A ** 2 * R2 * max(3, t) + e4 * A ** 4 * max(4, t)
                        + e2 * (3 * R2 ** 2 + 4 * A * R3) * max(2, t))

            pieces = math.ceil(math.log(j4 / j) / math.log(1.25)) if j < j4 else 0
            js = [mp.mpf(j) * (mp.mpf(j4) / j) ** (mp.mpf(i) / pieces) for i in range(pieces)] + [mp.mpf(j4)]
            want = L(min(p(js[-1]), mp.mpf(1) / n)) * C_at(js[-1]) / (2160 * js[-1] ** 3)
            for a, b in zip(js, js[1:]):
                peak = min(max(p(b), mp.mpf(1) / n), p(a))
                want += L(peak) * C_at(a) * (a ** -3 - b ** -3) / 2160
        assert got == pytest.approx(float(want), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("n, lam, kernel, K", [
        pytest.param(1, lam, kernel, 10, id=f"1-{lam}-{kernel.name.lower()}-10")
        for lam in (1.5, 2.0, 3.0) for kernel in (BINOMIAL, POISSON)] + [
        pytest.param(1000, 2.0, BINOMIAL, 7, id="1000-2.0-7"), pytest.param(1000, 2.0, POISSON, 40, id="1000-2.0-40")])
    def test_remainder_bounds_the_fourth_derivative(self, n, lam, kernel, K):
        # W >= int_a^inf |f''''|/720, the bound on the Euler-Maclaurin
        # remainder, with f'''' from 15-digit derivatives: at n = 1000 and
        # K = 7 (t(a) near 60) and 40 (near 5) the pieces before t = 4 count
        mp = pytest.importorskip("mpmath")
        c, k0 = 0.6, 2
        m = n + 1 if kernel is BINOMIAL else n
        j = float(K + k0)
        j4 = max(_logpower_y_at(c, lam, k0, n, kernel, 4.0) + k0 - 1.0, j)
        got = zoo._logpower_remainder(c, lam, float(n), kernel, float(m), j, j4, math.inf)
        with mp.workdps(15):
            f, _ = _logpower_f(mp, c, lam, k0, n, kernel)
            a = mp.mpf(K + 1)
            cuts = sorted({a, 2 * a, 4 * a, 64 * a, mp.mpf(j4 - k0 + 1)})
            want = mp.quad(lambda x: abs(mp.diff(f, x, 4)), cuts + [mp.inf]) / 720
        assert got >= float(want)

    def test_gauss_legendre_rule(self):
        # nodes within an ulp and weights within 2e-15 of the 40-digit rule;
        # exact for x^94, degree 2N - 2
        mp = pytest.importorskip("mpmath")
        nodes, weights = zoo._gauss_legendre()
        assert len(nodes) == zoo._QUADRATURE_NODES == 48
        with mp.workdps(40):
            for x, w in zip(nodes, weights):
                r = mp.findroot(lambda z: mp.legendre(48, z), mp.mpf(x))
                assert abs(x - r) <= math.ulp(x)
                assert abs(w / (2 * (1 - r * r) / (48 * mp.legendre(47, r)) ** 2) - 1) <= 2e-15
        assert float(np.dot(weights, nodes ** 94)) == pytest.approx(2 / 95, rel=1e-14)

    def test_gauss_legendre_rule_is_lazy(self):
        zoo._gauss_legendre.cache_clear()
        dist = make_distribution(parse_spec("logpower:lambda=2,k0=2"))
        dist.tail_mass_bound(10)
        tn(dist, 1000)
        assert zoo._gauss_legendre.cache_info().currsize == 0
        tn(dist, 10 ** 6)
        assert zoo._gauss_legendre.cache_info().currsize == 1

    @pytest.mark.parametrize("n, lam, kernel, t1, t2", [
        pytest.param(n, lam, kernel, t1, t2, id=f"{n}-{lam}-{kernel.name.lower()}-{t1}-{t2}")
        for n, lam, kernel in [(10, 2.0, BINOMIAL), (1000, 1.5, BINOMIAL), (1000, 3.0, POISSON),
                               (10 ** 6, 2.0, BINOMIAL), (10 ** 8, 3.0, POISSON)]
        for t1, t2 in [(40.0, 4.0), (8.0, 4.0)]])
    def test_quadrature_bound_is_the_stated_bound(self, n, lam, kernel, t1, t2):
        # h (64/15) c alpha^-lam rho^(2-2N)/(rho^2-1), rho from the largest
        # delta with alpha = u1 - h delta >= u1/2 and beta (1 + 2 lam/u1) <=
        # pi/3, halved until beta (1 + lam/alpha) <= pi/3 and c e^-alpha
        # alpha^-lam <= 1; and the rule's value within that bound of the
        # 30-digit integral, past its rounding: each node's exp(n log1p(-q))
        # is good to some t ulps, and the sum came within 9
        mp = pytest.importorskip("mpmath")
        c, k0 = 0.6, 2
        u1, u2 = (max(math.log(_logpower_y_at(c, lam, k0, n, kernel, t) + k0 - 1.0), math.log(k0))
                  for t in (t1, t2))
        value, bound = zoo._logpower_quadrature(c, lam, float(n), kernel, u1, u2)
        h = (u2 - u1) / 2
        delta = min(u1 / (2 * h), math.sqrt(1 + (math.pi / (3 * h * (1 + 2 * lam / u1))) ** 2) - 1)
        while True:
            alpha, beta = u1 - h * delta, h * math.sqrt(delta * (delta + 2))
            if beta * (1 + lam / alpha) <= math.pi / 3 and c * math.exp(-alpha) * alpha ** -lam <= 1:
                break
            delta /= 2
        rho = 1 + delta + math.sqrt(delta * (delta + 2))
        assert bound == pytest.approx(h * 64 / 15 * c * alpha ** -lam * rho ** -94 / (rho ** 2 - 1), rel=1e-9, abs=0.0)
        with mp.workdps(30):
            m_c, m_lam = mp.mpf(c), mp.mpf(lam)
            _, w1 = _logpower_f(mp, c, lam, k0, n, kernel)
            want = mp.quad(lambda u: m_c * u ** -m_lam * (1 + w1(m_c * mp.exp(-u) * u ** -m_lam)), [u1, u2])
        assert abs(value - float(want)) <= bound + 16 * math.ulp(value)

    @pytest.mark.parametrize("n, lam, kernel", [(1000, 2.0, BINOMIAL), (10 ** 6, 1.5, POISSON),
                                                (10 ** 8, 3.0, BINOMIAL)])
    def test_quadrature_error_is_within_its_bound_at_few_nodes(self, n, lam, kernel, monkeypatch):
        # with 4 to 10 nodes the rule's error is large enough to see, and
        # the bound still holds it
        mp = pytest.importorskip("mpmath")
        c, k0 = 0.6, 2
        u1, u2 = (math.log(_logpower_y_at(c, lam, k0, n, kernel, t) + k0 - 1.0) for t in (40.0, 4.0))
        with mp.workdps(30):
            m_c, m_lam = mp.mpf(c), mp.mpf(lam)
            _, w1 = _logpower_f(mp, c, lam, k0, n, kernel)
            want = float(mp.quad(lambda u: m_c * u ** -m_lam * (1 + w1(m_c * mp.exp(-u) * u ** -m_lam)), [u1, u2]))
        try:
            for nodes in (4, 6, 10):
                monkeypatch.setattr(zoo, "_QUADRATURE_NODES", nodes)
                zoo._gauss_legendre.cache_clear()
                value, bound = zoo._logpower_quadrature(c, lam, float(n), kernel, u1, u2)
                assert 1e-16 * want < abs(value - want) <= bound, nodes
        finally:
            monkeypatch.undo()
            zoo._gauss_legendre.cache_clear()


def _block_ends(terms: int) -> list[int]:
    """The ends of ``zoo.block_end``'s blocks up to the first at or past
    ``terms``."""
    ends = [zoo.block_end(0)]
    while ends[-1] < terms:
        ends.append(zoo.block_end(len(ends)))
    return ends


# each thin tail's unnormalized weight g(k) in mpmath, normalized apart
THIN_WEIGHTS = {
    "geometric:a=2": lambda mp, k: mp.mpf(2) ** -k,
    f"geometric:a={math.e!r}": lambda mp, k: mp.mpf(math.e) ** -k,
    "gaussian:lambda=1": lambda mp, k: mp.exp(-k * k),
    "tilted:lambda=1,r=-1": lambda mp, k: mp.exp(-k) / k,
    "tilted:lambda=1,r=1": lambda mp, k: k * mp.exp(-k),
}

# thin tails that fall slowly past k = 64, and where each stops at n = 1e6
# and 1e8, eps 1e-9, for either kernel
SLOW_THIN_TERMS = [
    ("geometric:a=1.01", 7168),
    ("gaussian:lambda=0.001", 1024),
    ("tilted:lambda=0.01,r=3", 7168),
]


class TestClosedFormBlocks:
    @pytest.mark.parametrize("kernel", [BINOMIAL, POISSON], ids=["binomial", "poisson"])
    @pytest.mark.parametrize("n", [10, 10 ** 4, 10 ** 8])
    @pytest.mark.parametrize("spec_text", list(THIN_WEIGHTS))
    def test_thin_tails_stop_after_the_first_block(self, spec_text, n, kernel):
        # the mass bound past k = 64 already meets eps on the t_n scale
        # (for geometric:a=2 at n = 1e8, 5.4e-12), and the bracket holds the
        # 40-digit sum of p_k w(p_k) over the first 400 letters, within
        # terms_used ulps of float rounding
        mp = pytest.importorskip("mpmath")
        dist = make_distribution(parse_spec(spec_text))
        value, trunc, terms = tail_index._series_points(
            dist, [float(n)], 1e-9, tail_index.DEFAULT_MAX_TERMS, kernel)[0]
        assert terms == zoo.block_end(0) == 64
        assert n * trunc <= 1e-9
        with mp.workdps(40):
            g = [THIN_WEIGHTS[spec_text](mp, mp.mpf(k)) for k in range(1, 400)]
            ps = [x / mp.fsum(g) for x in g]
            w = (lambda p: mp.exp(n * mp.log1p(-p))) if kernel is BINOMIAL else (lambda p: mp.exp(-n * p))
            want = mp.fsum(p * w(p) for p in ps)
        slack = terms * math.ulp(value + trunc)
        assert value - slack <= want <= value + trunc + slack

    @pytest.mark.parametrize("kernel", [BINOMIAL, POISSON], ids=["binomial", "poisson"])
    @pytest.mark.parametrize("n", [10 ** 6, 10 ** 8])
    @pytest.mark.parametrize("spec_text, terms", SLOW_THIN_TERMS)
    def test_slow_thin_tails_stop_past_the_first_block(self, spec_text, terms, n, kernel):
        # tails that fall slowly past k = 64 close on the mass bound at a
        # later block end, within eps
        dist = make_distribution(parse_spec(spec_text))
        _, trunc, used = tail_index._series_points(
            dist, [float(n)], 1e-9, tail_index.DEFAULT_MAX_TERMS, kernel)[0]
        assert used == terms
        assert n * trunc <= 1e-9

    def test_thin_tails_read_one_mass_bound_per_block_end(self, monkeypatch):
        # a thin tail's upper end is tail_mass_bound(K) alone: no log_prob,
        # and no mass bound beyond K, is read to close it
        dists = [make_distribution(s) for s in catalog()
                 if s.kind in (FamilyKind.GEOMETRIC, FamilyKind.GAUSSIAN_TYPE, FamilyKind.TILTED_GEOMETRIC)]
        dists += [make_distribution(parse_spec(text)) for text, _ in SLOW_THIN_TERMS]
        calls = collections.Counter()
        for name in ("log_prob", "tail_mass_bound"):
            def counting(self, k, _name=name, _original=getattr(Distribution, name)):
                calls[_name] += 1
                return _original(self, k)
            monkeypatch.setattr(Distribution, name, counting)
        for dist in dists:
            for n in (10, 10 ** 4, 10 ** 8):
                calls.clear()
                iv = tn(dist, n)
                assert calls["log_prob"] == 0, (dist.spec, n)
                assert calls["tail_mass_bound"] <= len(_block_ends(iv.terms_used)), (dist.spec, n)

    def test_blocks_stay_at_most_2_16_values(self, logpower2, monkeypatch):
        sizes = []
        log_prob_block = Distribution.log_prob_block

        def recording(self, start, stop):
            sizes.append(stop - start)
            return log_prob_block(self, start, stop)

        monkeypatch.setattr(Distribution, "log_prob_block", recording)
        power15 = make_distribution(parse_spec("power:lambda=1.5"))
        # log-power at 1.6e8, where eps lies below n ulps of the tail at K = 0
        for dist, n in ((logpower2, 160_000_000), (power15, 10 ** 8)):
            sizes.clear()
            iv = tn(dist, n)
            assert max(sizes) == 1 << 16
            assert list(itertools.accumulate(sizes)) == _block_ends(iv.terms_used)

    def test_logpower_at_1e8(self, logpower2):
        # blocks that grew to 2^21 values overshot to 6,290,432 terms; the
        # bracket at K = 0 sums none
        iv = tn(logpower2, 10 ** 8)
        assert 0.0 < iv.trunc_error <= 1e-9
        assert iv.terms_used == 0
        assert _brackets(iv, float(LOGPOWER_REFS[-1][1]))

    @pytest.mark.parametrize("spec_text, n, eps", [
        # these stops have 3, 66, 60, 31, 79 and 185 earlier open ones, K = 0
        # among the log-power ones
        ("logpower:lambda=2,k0=2", 10000, 1e-12),
        ("logpower:lambda=2,k0=2", 223872, 1e-12),
        ("logpower:lambda=2,k0=2", 199526231, 1e-9),
        ("power:lambda=1.5", 10 ** 8, 1e-9),
        ("power:lambda=1.1", 12345, 1e-12),
        ("power:lambda=1.5", 10 ** 7, 1e-12),
    ])
    def test_stops_at_the_first_closing_block(self, spec_text, n, eps):
        # near the one-ulp floor rounding moves the computed width up and
        # down between block ends, so the rule is not monotone in K and a
        # search over block ends can step past the first that closes: at
        # the two power points at eps = 1e-12 a galloping search stopped at
        # 6,552,576 and 12,909,568 terms, past 5 and 2 block ends that close
        dist = make_distribution(parse_spec(spec_text))
        bracket = _sandwich(dist, float(n), BINOMIAL)
        floor_misses_eps = n * math.ulp(bracket(tail_index.DEFAULT_MAX_TERMS)[1]) > eps

        def closes(K):
            lo, hi = bracket(K)
            return n * max(hi - lo, math.ulp(hi)) <= eps or (hi - lo <= math.ulp(hi) and floor_misses_eps)

        iv = tn(dist, n, eps)
        ends = _block_ends(iv.terms_used)
        assert ends[-1] == iv.terms_used and closes(iv.terms_used)
        earlier = [K for K in [0] + ends[:-1] if bracket(K) is not None]
        assert earlier and not any(closes(K) for K in earlier)

    @pytest.mark.parametrize("n, eps, terms", [
        (1000, 1e-9, 1024), (223872, 1e-9, 1024), (788273, 1e-9, 0), (10 ** 6, 1e-9, 0),
        (89125094, 1e-9, 0), (144_000_000, 1e-9, 0), (42727, 1e-6, 0), (10 ** 5, 1e-6, 0)])
    def test_logpower_closes_at_K_0_or_the_first_block_end(self, logpower2, n, eps, terms):
        # the bracket is tried at K = 0 and then from 1,024 on: at eps = 1e-9
        # it closes at K = 0 from n = 788,273 to 1.44e8, where n ulps of the
        # tail (below 2^-4) reach eps, and at 1,024 below; at eps = 1e-6 at
        # K = 0 from n = 42,727.  Where K = 0 does not close, its remainder
        # alone is too wide and the integral is never taken
        iv = tn(logpower2, n, eps)
        assert (iv.terms_used, iv.trunc_error <= eps) == (terms, True)
        closes_at_0 = _sandwich(logpower2, float(n), BINOMIAL)(0, max(eps / n, 2.0 ** -51)) is not None
        assert closes_at_0 == (terms == 0)

    @pytest.mark.parametrize("n, ceiling", [(1000, 1024), (10 ** 6, 0), (10 ** 8, 0)])
    def test_logpower_terms_ceilings(self, logpower2, n, ceiling):
        # the first-order sandwich summed 31,744, 654,336 and 3,537,920
        # terms; the bracket that opened where t fell to 4, 1,024, 3,072 and
        # 130,048
        iv = tn(logpower2, n)
        assert iv.terms_used <= ceiling and iv.trunc_error <= 1e-9

    def test_memory_stays_below_16_mib(self, logpower2):
        # blocks that grew to 2^21 values peaked at 112 MiB, in 16 MiB arrays
        # (log-power at 1.6e8 sums 3.6 million terms)
        tracemalloc.start()
        try:
            tn(logpower2, 160_000_000)
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
        # at 2^47 both are certified; the first member moved by 3 ulps (from
        # 0.6909882989426693) once the normalizer moved by 5 ulps, toward
        # 1/zeta(2), with power's second-order mass bracket
        assert scaled_pair(power2, 2 ** 47, 0.5) == (0.690988298942669, 0.6909882989426709)

    def test_width_floor_is_not_a_miss(self, logpower2):
        # eps = 1e-12 stops at the one-ulp floor, before the cap: no raise
        assert tn(logpower2, 10 ** 8, eps=1e-12).terms_used < tail_index.DEFAULT_MAX_TERMS
        # the first member is t_n / 1e4 within 1e-15 relative of LOGPOWER_REFS
        assert scaled_pair(logpower2, 10 ** 8, 0.5, eps=1e-12) == (363.96349073427865, 363.96349087124463)

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

    @pytest.mark.parametrize("c", [5e-324, 1e-300, 1e-90, 1.0, math.e, 1e90, 1e300])
    def test_profile_matches_mpmath_at_any_c(self, c):
        # each loop stopped at 200 terms, short of j = |ln c|: t(1e-90) read
        # 4.2e-4 and t(1e300) read 0
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            cm = mp.mpf(c)
            mid = int(mp.floor(-mp.log(cm)))
            want = mp.fsum(cm * mp.exp(j - cm * mp.exp(j)) for j in range(mid - 120, mid + 20))
            assert abs(oscillation_t(c) - want) <= 1e-12 * want

    @pytest.mark.parametrize("c", [0.0, -1.0, math.inf, math.nan])
    def test_profile_needs_a_finite_positive_c(self, c):
        with pytest.raises(InvalidParams):
            oscillation_t(c)

    def test_state_past_the_float_range_is_refused(self, geom2):
        # 1/(n+1) ended in a bare OverflowError
        with pytest.raises(InvalidParams, match="float range"):
            oscillation_state(geom2, 2 ** 1060)

    def test_state_finds_k_star_past_int64(self, power2):
        # bisect over range(1, hi + 1) could not hold the 10^100 candidates
        n = 10 ** 200
        state = oscillation_state(power2, n)
        assert state.k_star > 2 ** 63
        assert power2.prob(state.k_star) >= 1.0 / (n + 1) > power2.prob(state.k_star + 1)
        assert n / (n + 1.0) * (1 - 1e-12) <= state.c_of_n

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

    @pytest.mark.parametrize("n", [2 ** 50])
    def test_series_stopped_at_the_cap_raises(self, power2, n):
        with pytest.raises(AlphatailError, match=f"n = {n} stops at max_terms = 33554432"):
            em_gap(power2, n)

    def test_refuses_n_past_the_float_range_before_summing(self, power2, monkeypatch):
        # em_gap rounded n to a float and summed 2^25 terms before it raised
        def no_blocks(*args):
            raise AssertionError("em_gap summed a block")
        monkeypatch.setattr(Distribution, "prob_blocks", no_blocks)
        for call in (lambda: em_gap(power2, 2 ** 53 + 1), lambda: scaled_pair(power2, 2 ** 53 + 1, 0.5)):
            with pytest.raises(InvalidParams, match="float-exact range"):
                call()

    def test_own_cap_certifies_past_the_series_default(self, power2, monkeypatch):
        # at n = 2^48 the e^{-np} sum certifies DEFAULT_EPS with 18,611,200
        # terms, more than DEFAULT_MAX_TERMS: em_gap keeps its own 2^25 cap
        # (18,545,664, one block of 2^16 fewer, before the normalizer moved
        # by 5 ulps with power's second-order mass bracket: there the
        # bracket's computed width is a few ulps of rounding, 1 ulp at
        # 18,545,664 before and 4 after, so those ulps move the stop a block)
        seen = []
        series_points = tail_index._series_points

        def recorded(*args):
            seen.extend(series_points(*args))
            return seen[-1:]
        monkeypatch.setattr(tail_index, "_series_points", recorded)
        r = em_gap(power2, 2 ** 48)
        assert abs(r.lattice_sum - r.integral) <= r.bound
        assert [terms for _, _, terms in seen] == [18_611_200]
        assert 18_611_200 > tail_index.DEFAULT_MAX_TERMS


class TestSeries:
    def test_schedule_evaluation(self, geom2):
        sched = [2 ** j for j in range(4, 13)]
        assert [p.n for p in evaluate_series(geom2, sched)] == sched

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
# again once those tails closed with the second-order bracket, and again
# once that bracket opened where t = (n+1) p falls to 4 (the three log-power
# rows summed 630,784, 827,392 and 3,007,488 terms before), and again once
# it opened at every K and closed at K = 0 from n of about 4.3e4 at eps 1e-6
# and 7.9e5 at 1e-9 (110,592, 184,320 and 410,624 terms before); every point
# of the two verdict schedules lies in its bracket around its 30-digit
# reference (bench/refs.py), those that close at K = 0 up to 2.3e5 ulps,
# 1e-7 on the t_n scale, below it, within eps = 1e-6.  Six digests
# were computed again once the series grid's first block held 64 values:
# the first 1,024 terms became two block sums, which moved 8 of the 106
# values by 1 ulp and no trunc_error or terms_used.  The five power digests
# were computed again once power was normalized with the second-order mass
# bracket: its normalizer moved by 3 (lam = 1.5) or 5 (lam = 2) ulps toward
# 1/zeta(lam), which moves values and widths in their last bits and no
# terms_used.
CLI_SCHEDULE = _parse_schedule("1000:100000000:x3/2")
PINNED_SCHEDULES = [pytest.param(*row, id=row_id) for row_id, row in [
    ("power2-seed1", ("power:lambda=2", [5012, 19953, 79433, 316228, 1258925, 5011872, 19952623, 79432823],
     1e-6, 1 << 22, "e49e8048a5470a506695838010d6b4e569e7768a5a12ee989a1702a648604f8a", 83968)),
    ("power1.5-seed1", ("power:lambda=1.5", [5623, 22387, 89125, 354813, 1412538, 5623413, 22387211, 89125094],
     1e-6, 1 << 22, "b0d9e416a03fa8e63a2c199d460ffad5d487cb21b677649d3e2ceb947ecca469", 364544)),
    ("logpower-seed1", ("logpower:lambda=2,k0=2", [3981, 15849, 63096, 251189, 1000000, 3981072, 15848932, 63095734],
     1e-6, 1 << 22, "b42f11650c9c008f57439d0a2dd86d0e71e148004bda3f5ebf1159c510b635f8", 2048)),
    ("power2-seed201", ("power:lambda=2", [5623, 22387, 89125, 354813, 1412538, 5623413, 22387211, 89125094],
     1e-6, 1 << 22, "41614b91e3500beea287a7ee1cad879a8c80f4be37d4297ff56a2f299cec391c", 83968)),
    ("power1.5-seed201", ("power:lambda=1.5", [2512, 10000, 39811, 158489, 630957, 2511886, 10000000, 39810717],
     1e-6, 1 << 22, "1ea34be924237a1d3331eeec100c6d782c8bdfd99ee10fd092b59b578d498f42", 290816)),
    ("logpower-seed201", ("logpower:lambda=2,k0=2", [5012, 19953, 79433, 316228, 1258925, 5011872, 19952623, 79432823],
     1e-6, 1 << 22, "8546b03738a02e0c6ba0b517b272f0faa5c750b1c7c56594d72712e4b60bf5ac", 2048)),
    ("power1.5-cli", ("power:lambda=1.5", CLI_SCHEDULE, 1e-9, 1 << 24,
     "90510ed4e784fdb8266e2f95fb574628e68ce38937d973d939f21390c6ec2a7e", 14486528)),
    ("logpower-cli", ("logpower:lambda=2,k0=2", CLI_SCHEDULE, 1e-9, 1 << 24,
     "7ca878bbe9b87a83a28b6082d34af1e80f4229547c0487da9db6fddcadb6495e", 19456)),
]]
# unsorted, with duplicates, from the first block to far past the convex onset
MIXED_NS = [7, 3, 10 ** 6, 3, 250, 3 * 10 ** 7, 40_000, 7]


class TestScheduleSweep:
    @pytest.mark.parametrize("spec_text, schedule, eps, max_terms, digest, terms", PINNED_SCHEDULES)
    def test_pinned_points(self, spec_text, schedule, eps, max_terms, digest, terms):
        dist = make_distribution(parse_spec(spec_text))
        points = evaluate_series(dist, schedule, eps, max_terms)
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
        assert evaluate_series(dist, ns) == [tn(dist, n) for n in ns]

    def test_huge_n_mixed_in(self, diffusion14):
        probes = [r.n_probe for r in diffusion14.runs] + [r.m_probe for r in diffusion14.runs]
        ns = sorted(set(probes + [16 * 4 ** j for j in range(12)]))
        assert any(n > 2 ** 53 for n in ns) and any(n <= 2 ** 53 for n in ns)
        assert evaluate_series(diffusion14, ns) == [tn(diffusion14, n) for n in ns]

    def test_memory_of_one_block(self):
        # the sweep holds one block's p, L and scratch, however many points
        # (a power tail: log-power closes at K = 0 at the schedule's top)
        dist = make_distribution(parse_spec("power:lambda=1.5"))
        peaks = []
        for run in (lambda: tn(dist, CLI_SCHEDULE[-1]), lambda: evaluate_series(dist, CLI_SCHEDULE)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2 * 2 ** 20


CATALOG_TEXTS = [format_spec(s) for s in catalog()]
# from inside the first block to far past it: every thin tail closes at the
# first block end, a power tail walks on
KEPT_NS = [3, 250, 40_000, 10 ** 6]
THREADS = 8


def _fresh(spec_text: str) -> Distribution:
    return make_distribution(parse_spec(spec_text))


def _warm(spec_text: str) -> Distribution:
    """A distribution that has evaluated other n, on a schedule and one n
    at a time, with both kernels."""
    dist = _fresh(spec_text)
    evaluate_series(dist, [5, 64, 999, 123_456])
    tn(dist, 12)
    zeta1(dist, 7_000_000)
    scaled_pair(dist, 77, 0.5)
    if dist.kind is FamilyKind.POWER:
        em_gap(dist, 1000)
    return dist


class TestKeptKernelArrays:
    """``Distribution.kernel_arrays``: built on first use, kept read-only,
    and never a cause of a result other than a fresh distribution's."""

    @pytest.mark.parametrize("spec_text", CATALOG_TEXTS)
    def test_built_on_first_use_only(self, spec_text, monkeypatch):
        built = []
        log_weight = zoo.Kernel.log_weight
        monkeypatch.setattr(zoo.Kernel, "log_weight",
                            lambda self, p: built.append(self) or log_weight(self, p))
        dist = _fresh(spec_text)
        assert built == []
        for kernel in (BINOMIAL, POISSON):
            assert dist.kernel_arrays(kernel) is dist.kernel_arrays(kernel)
        assert built == [BINOMIAL, POISSON]

    @pytest.mark.parametrize("spec_text", CATALOG_TEXTS + ["geometric:a=200"])
    def test_read_only_and_bounded(self, spec_text):
        # geometric:a=200 has p_1 = 0.995, so its (1-p)^n arrays hold big
        dist = _fresh(spec_text)
        for kernel in (BINOMIAL, POISSON):
            L, big, factor, tail = dist.kernel_arrays(kernel)
            if dist.prefix_length is None:
                assert len(L) == len(factor) == zoo.block_end(0) and tail is None
            else:
                assert len(L) == len(factor) == len(dist.positive_levels()[0])
                assert tail == dist.tail_mass_bound(dist.prefix_length)
            for a in (L, factor, *(big or ())):
                assert 0 < len(a) <= len(L)
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0
        assert (dist.kernel_arrays(BINOMIAL).big is not None) == (spec_text == "geometric:a=200")

    @pytest.mark.parametrize("spec_text", CATALOG_TEXTS)
    def test_warm_equals_fresh(self, spec_text):
        expected = ([tn(_fresh(spec_text), n) for n in KEPT_NS],
                    [zeta1(_fresh(spec_text), n) for n in KEPT_NS],
                    evaluate_series(_fresh(spec_text), KEPT_NS))
        warm = _warm(spec_text)
        assert ([tn(warm, n) for n in KEPT_NS], [zeta1(warm, n) for n in KEPT_NS],
                evaluate_series(warm, KEPT_NS)) == expected

    @pytest.mark.parametrize("spec_text", CATALOG_TEXTS)
    def test_sample_after_tn(self, spec_text):
        def draw(dist):
            try:
                return sample(dist, 5000, seed=3).counts
            except AlphatailError as err:
                return type(err)

        warm = _warm(spec_text)
        kept = [a.copy() for a in warm.kernel_arrays(BINOMIAL)[::2]]
        assert draw(warm) == draw(_fresh(spec_text))
        assert all(np.array_equal(a, b) for a, b in zip(warm.kernel_arrays(BINOMIAL)[::2], kept))

    @pytest.mark.parametrize("spec_text", CATALOG_TEXTS)
    def test_copies_of_a_warm_distribution(self, spec_text):
        warm = _warm(spec_text)
        expected = [tn(warm, n) for n in KEPT_NS]
        for copied in (pickle.loads(pickle.dumps(warm)), copy.deepcopy(warm)):
            # twice over: a kept array copied writable would take the terms
            assert [tn(copied, n) for n in KEPT_NS + KEPT_NS] == expected + expected
            assert not copied.kernel_arrays(BINOMIAL).L.flags.writeable

    @pytest.mark.parametrize("spec_text", CATALOG_TEXTS)
    def test_threads_share_a_fresh_distribution(self, spec_text):
        ns = KEPT_NS[:3]
        expected = [tn(_fresh(spec_text), n) for n in ns]
        dist = _fresh(spec_text)
        barrier = threading.Barrier(THREADS)
        results = [None] * THREADS

        def work(i):
            barrier.wait(timeout=60)
            results[i] = [tn(dist, n) for n in ns]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * THREADS


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
