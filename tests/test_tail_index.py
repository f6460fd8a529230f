"""Series evaluation, truncation certificates, oscillation and gap machinery."""

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special

from alphatail import tail_index
from alphatail import (
    FamilyKind,
    FamilySpec,
    FiniteSupport,
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

    def test_honest_trunc_when_capped(self):
        # the log-power tail cannot certify 1e-12 at n=1e6 within the cap;
        # the reported remainder must say so rather than pretend
        logpower = make_distribution(parse_spec("logpower:lambda=2,k0=2"))
        iv = tn(logpower, 10 ** 6, eps=1e-12, max_terms=1 << 20)
        assert iv.trunc_error > 1e-12
        assert iv.terms_used == 1 << 20

    def test_finite_has_zero_trunc(self, uniform10):
        assert tn(uniform10, 12345).trunc_error == 0.0


# t_n from bench/refs.json (30-digit mpmath sums, regenerated by bench/refs.py)
POWER_REFS = [
    ("power:lambda=2", 1000, "21.84277876406327379400344"),
    ("power:lambda=2", 223872, "326.941352786883545615595"),
    ("power:lambda=2", 10 ** 8, "6909.882963514648454878989"),
    ("power:lambda=1.5", 1000, "94.13503517193707341494275"),
    ("power:lambda=1.5", 223872, "3471.473550039934612859144"),
    ("power:lambda=1.5", 10 ** 8, "202852.8457565743507155243"),
]
LOGPOWER_REFS = [
    (1000, "123.3084328254529784883514"),
    (223872, "13458.32563118769524461052"),
    (10 ** 8, "3639634.907342783999780465"),
]


def _brackets(iv, ref: float) -> bool:
    # float rounding of the sums and the normalizer's halfwidth lie outside
    # trunc_error: allow (terms_used + 1e4) ulps of the upper end, which also
    # covers the ~5e-12 relative error of the lambda = 1.5 references
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
    def test_logpower_lower_term_brackets_reference(self, n, ref):
        iv = tn(make_distribution(parse_spec("logpower:lambda=2,k0=2")), n, eps=1e-9)
        assert iv.terms_used == tail_index.DEFAULT_MAX_TERMS
        assert _brackets(iv, float(ref))
        # the mass bound alone leaves a remainder wider than the value
        assert iv.trunc_error < 0.01 * iv.value

    @pytest.mark.parametrize("lam", [1.1, 1.5, 2.0, 7.0])
    @pytest.mark.parametrize("n", [1, 1000, 10 ** 8])
    def test_convexity_starts_at_x_c(self, lam, n):
        mp = pytest.importorskip("mpmath")
        c = 0.6
        x_c = tail_index._power_convex_from(c, lam, float(n))
        with mp.workdps(40):
            m_c, m_lam = mp.mpf(c), mp.mpf(lam)
            f = lambda x: m_c * x ** -m_lam * (1 - m_c * x ** -m_lam) ** n  # noqa: E731
            assert mp.diff(f, mp.mpf(x_c) * (1 - mp.mpf(1e-6)), 2) < 0
            for scale in (1 + 1e-6, 2, 100):
                assert mp.diff(f, mp.mpf(x_c) * scale, 2) > 0

    @pytest.mark.parametrize("lam", [1.1, 1.5, 2.0, 3.0, 7.0])
    @pytest.mark.parametrize("n", [1, 10, 1000, 223872, 10 ** 8, 2 ** 53])
    def test_tail_integral_matches_mpmath(self, lam, n):
        mp = pytest.importorskip("mpmath")
        c = 0.6
        x_c = tail_index._power_convex_from(c, lam, float(n))
        for y in (x_c, 10 * x_c, 1000 * x_c):
            got = tail_index._power_tail_integral(c, lam, float(n), y)
            with mp.workdps(40):
                m_c, m_lam, m_y = mp.mpf(c), mp.mpf(lam), mp.mpf(y)
                want = (m_c ** (1 / m_lam) / m_lam
                        * mp.betainc(1 - 1 / m_lam, n + 1, 0, m_c * m_y ** -m_lam))
            assert abs(got - float(want)) <= 2e-15 * float(want)


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
        # library cross-check: scipy's gamma vs the libm route used inside
        for lam in (1.5, 2.0, 3.0, 10.0):
            want = float(special.gamma(1 - 1 / lam)) / lam
            assert power_tail_limit(1.0, lam) == pytest.approx(want, rel=1e-12)

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

    def test_finite_vector_at_huge_n(self, uniform2):
        # a finite vector is a level table with nothing beyond it
        for f in (tn, zeta1):
            iv = f(uniform2, 2 ** 60)
            assert iv.value == 0.0
            assert iv.trunc_error == 0.0
