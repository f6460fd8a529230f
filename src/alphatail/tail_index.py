"""Tail-index evaluation with certified truncation.

The central objects are the coverage deficit ``zeta_n = sum_k p_k (1-p_k)^n``
(the chance that one more draw lands on an unseen letter) and the tail index
``t_n = n * zeta_n``.  Each evaluation returns a lower-bound ``value``
together with a certified ``trunc_error`` so that the true quantity lies in
``[value, value + trunc_error]`` up to float rounding.  Closed forms are
summed in index-ordered blocks, each with NumPy's pairwise sum, and the block
sums with ``math.fsum``; a level table (a finite vector or a constructed
prefix) is summed with one ``math.fsum``, so its value does not depend on
the order of its levels and a finite vector's ``trunc_error`` is exactly 0.
That sum runs over the levels whose term can be nonzero: those with p > 0
in float for n up to 2**53, those with -746 < ln(n p) < ln 800 beyond.
Every other term is exactly 0, so the value is the full table's bit for bit.

One evaluator sums ``sum_k p_k w(p_k)`` for either of two kernels: Turing's
``w(p) = (1-p)^n`` (``zeta1``, ``tn``) and its Poissonized twin
``w(p) = e^{-np}`` (the second member of ``scaled_pair``, ``em_gap``).

Truncation bounds are family-aware.  Power tails ``p_k = c k^-lam`` are
closed analytically: the summand ``f(x) = p w(p)`` has the tail integral
``(c^{1/lam}/lam) B_{p(y)}(1-1/lam, n+1)``, an incomplete beta function, for
``(1-p)^n`` and ``(c^{1/lam}/lam) n^{1/lam-1} gamma(1-1/lam, n p(y))``, an
incomplete gamma function, for ``e^{-np}``.  Once ``f`` is convex on
``[K+1/2, inf)`` the omitted sum lies between the trapezoid and midpoint
sandwiches ``int_{K+1}^inf f + f(K+1)/2`` and ``int_{K+1/2}^inf f``.  The
lower end is added to ``value`` and the width is the ``trunc_error``.  Other
infinite tails use a dyadic-block upper bound built from the family's
tail-mass certificate, valid for both kernels since ``p(1-p)^n <= p e^{-np}``.
``eps`` is a target on the t_n scale; when a slowly decaying tail (log-power)
cannot certify it within ``max_terms`` summands, the evaluation stops at the
cap, adds the sound lower term ``w(p_{K+1})`` times the certified lower tail
mass to ``value`` and reports the honest, larger ``trunc_error`` instead of
guessing.  Float rounding and the normalizer's halfwidth lie outside
``trunc_error``.

Very large n (beyond 2**53, needed for the diffusion family's probe
subsequences) is supported for ``(1-p)^n`` over level tables: terms are
assembled from ``ln n`` and exact log2 probabilities, so neither n nor p is
ever materialized as a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np
from scipy import special

from .errors import AlphatailError, FiniteSupport, InvalidParams
from .zoo import LN2, Distribution, FamilyKind

DEFAULT_EPS = 1e-9          # t_n-scale truncation target for CLI-level calls
DEFAULT_MAX_TERMS = 1 << 24

_FLOAT_N_LIMIT = 1 << 53
_EXP_OVERFLOW = 709.0
_EXP_UNDERFLOW = -745.0
_LN_800 = math.log(800.0)


@dataclass(frozen=True)
class IndexValue:
    """One certified evaluation: true quantity in [value, value+trunc_error]."""

    n: int
    value: float
    trunc_error: float
    terms_used: int

    def __post_init__(self):
        if self.value < 0.0 or self.trunc_error < 0.0:
            raise AlphatailError("index values and truncation errors are nonnegative")

    @property
    def upper(self) -> float:
        return self.value + self.trunc_error


@dataclass(frozen=True)
class IndexSeries:
    schedule: list
    points: list

    def __post_init__(self):
        if len(self.schedule) != len(self.points):
            raise InvalidParams("schedule and points must align 1:1")
        if any(b <= a for a, b in zip(self.schedule, self.schedule[1:])):
            raise InvalidParams("schedule must be strictly increasing")


@dataclass(frozen=True)
class OscillationState:
    """k* straddling 1/(n+1), and c(n) = n * p_{k*}."""

    n: int
    k_star: int
    c_of_n: float


class EmGap(NamedTuple):
    lattice_sum: float
    integral: float
    bound: float
    f_at_mode: float


# ---------------------------------------------------------------------------
# The two kernels
# ---------------------------------------------------------------------------

class _Kernel(Enum):
    """The weight w(p) of the series sum_k p_k w(p_k)."""

    BINOMIAL = "(1-p)^n"    # Turing's zeta_n
    POISSON = "e^{-np}"     # its Poissonized twin

    def block(self, p: np.ndarray, n: float) -> np.ndarray:
        """w on an array; (1-p)^n by exp(n log1p(-p)), with a direct-power
        fallback for p > 0.99."""
        if self is _Kernel.POISSON:
            return np.exp(-n * p)
        with np.errstate(divide="ignore", over="ignore"):
            out = np.exp(n * np.log1p(-p))
        big = p > 0.99
        if np.any(big):
            out[big] = np.power(1.0 - p[big], n)
        return out

    def at(self, p: float, n: float) -> float:
        if self is _Kernel.BINOMIAL:
            return math.exp(n * math.log1p(-p))
        return math.exp(-n * p)


# ---------------------------------------------------------------------------
# Certified tail bounds for the series sum_{k>K} p_k w(p_k)
# ---------------------------------------------------------------------------

def _dyadic_series_tail(dist: Distribution, K: int, n: float, blocks: int = 60) -> float:
    """Generic bound from mass certificates: on (K 2^j, K 2^{j+1}] every term
    is at most (block mass) * exp(-n p(K 2^{j+1})).
    """
    total = 0.0
    for j in range(blocks):
        lo = K << j
        hi = K << (j + 1)
        lp = dist.log_prob(hi + 1)
        damp = math.exp(-n * math.exp(lp)) if lp > -700.0 else 1.0
        total += dist.tail_mass_bound(lo) * damp
        if damp >= 1.0 - 1e-12:
            # deeper blocks gain nothing; close with the raw mass bound
            return total + dist.tail_mass_bound(hi)
    return total + dist.tail_mass_bound(K << blocks)


def _series_tail_bound(dist: Distribution, K: int, n: float) -> float:
    """Certified zeta-scale bound on everything omitted beyond index K, for
    either kernel, from p(1-p)^n <= p e^{-np}."""
    return min(dist.tail_mass_bound(K), _dyadic_series_tail(dist, K, n))


def _power_convex_from(c: float, lam: float, n: float, kernel: _Kernel) -> float:
    """x_c beyond which f(x) = p w(p), p = c x^-lam, is convex.

    The sign of f'' is that of a quadratic A p^2 - B p + (lam+1) in p, so f
    is convex for p below its smaller root; the margin covers rounding.  For
    e^{-np} the root is u_-/n with u_- = 2(lam+1)/((3lam+1) + sqrt(5lam^2+2lam+1)).
    """
    if kernel is _Kernel.BINOMIAL:
        A = lam * n * (n + 1.0) + (lam + 1.0) * (n + 1.0)
        B = 2.0 * lam * n + (lam + 1.0) * (n + 2.0)
    else:
        A = lam * n * n
        B = (3.0 * lam + 1.0) * n
    C = lam + 1.0
    p_minus = 2.0 * C / (B + math.sqrt(B * B - 4.0 * A * C))
    return (c / p_minus) ** (1.0 / lam) * (1.0 + 1e-9)


def _power_tail_integral(c: float, lam: float, n: float, y: float, kernel: _Kernel) -> float:
    """integral_y^inf p w(p) dx for p = c x^-lam, where p(y) < 1.

    Substituting q = p(x) gives (c^{1/lam}/lam) B_{p(y)}(a, n+1) for (1-p)^n
    and (c^{1/lam}/lam) n^{1/lam-1} gamma(a, n p(y)) for e^{-np}, with
    a = 1 - 1/lam.  Their series B_x(a,b) = x^a (1-x)^b / a * F(a+b, 1; a+1; x)
    and gamma(a,u) = u^a e^{-u} / a * M(1; a+1; u) have positive terms whose
    ratios fall towards x and 0, so the sums are accurate to a few ulps; the
    prefactor simplifies to c y^{1-lam}/(lam-1) times (1-x)^{n+1} or e^{-nx}.
    Past the convex range (n x > 1, em_gap's integral from y = 1) the gamma
    series would need some n x terms, and Gamma(a) P(a, n x) is used instead.
    """
    x = c * y ** -lam
    a = 1.0 - 1.0 / lam
    binomial = kernel is _Kernel.BINOMIAL
    if not binomial and n * x > 1.0:
        return c ** (1.0 / lam) / lam * n ** (-a) * math.gamma(a) * float(special.gammainc(a, n * x))
    term = total = 1.0
    j = 0.0
    while term > 1e-17 * total:
        term *= (a + n + 1.0 + j) / (a + 1.0 + j) * x if binomial else n * x / (a + 1.0 + j)
        total += term
        j += 1.0
    damp = math.exp((n + 1.0) * math.log1p(-x)) if binomial else math.exp(-n * x)
    return c * y ** (1.0 - lam) / (lam - 1.0) * damp * total


def _power_tail_bracket(c: float, lam: float, n: float, K: int, kernel: _Kernel) -> tuple[float, float]:
    """[lo, hi] on sum_{k>K} p_k w(p_k) once f is convex on [K+1/2, inf):
    trapezoid lower and midpoint upper sandwich of the integral."""
    p1 = c * (K + 1.0) ** -lam
    f1 = p1 * kernel.at(p1, n)
    return (_power_tail_integral(c, lam, n, K + 1.0, kernel) + 0.5 * f1,
            _power_tail_integral(c, lam, n, K + 0.5, kernel))


# ---------------------------------------------------------------------------
# Core evaluators
# ---------------------------------------------------------------------------

def _eval_closed_form(
    dist: Distribution,
    n: float,
    eps_t: float,
    max_terms: int,
    kernel: _Kernel,
) -> tuple[float, float, int]:
    """(value, trunc, terms) for sum_k p_k w(p_k) over a closed form.

    Blocks are summed until the omitted tail's bracket is narrower than
    eps_t / n, and the bracket's lower end joins ``value``.  Power tails
    close with the kernel's incomplete-beta or incomplete-gamma bracket once
    the summand is convex; other tails with the dyadic upper bound alone,
    which bounds p e^{-np} >= p (1-p)^n and so serves both kernels.  A tail
    that reaches ``max_terms`` unmet takes the lower bound w(p_{K+1}) times
    the certified lower tail mass, sound because p_k <= p_{K+1} beyond K.
    """
    sums: list[float] = []
    power = dist.kind is FamilyKind.POWER
    if power:
        c, lam = dist.norm_constant, dist.spec.params["lambda"]
        x_c = _power_convex_from(c, lam, n, kernel)
    k = 1
    chunk = 1 << 10
    tail_lo, tail_hi = 0.0, math.inf
    while True:
        hi = min(k + chunk, max_terms + 1)
        lp = dist.log_prob_block(k, hi)
        with np.errstate(under="ignore"):
            p = np.exp(lp)
            sums.append(float((p * kernel.block(p, n)).sum()))
        k = hi
        K = k - 1
        closed = power and K + 0.5 >= x_c
        capped = k > max_terms
        if closed:
            tail_lo, tail_hi = _power_tail_bracket(c, lam, n, K, kernel)
        elif K >= dist.k0_head and (capped or not power):
            tail_hi = _series_tail_bound(dist, K, n)
        if n * (tail_hi - tail_lo) <= eps_t:
            break
        if capped:
            if not closed and K >= dist.k0_head:
                p1 = math.exp(dist.log_prob(K + 1))
                tail_lo = min(dist.tail_mass_lower(K) * kernel.at(p1, n), tail_hi)
            break
        chunk = min(chunk * 2, 1 << 21)
    return math.fsum(sums) + tail_lo, max(tail_hi - tail_lo, 0.0), K


def _eval_t_large(dist: Distribution, n: int) -> tuple[float, float, int]:
    """t_n for level tables at arbitrarily large integer n.

    Works from ln n and log2 probabilities only; the asymptotic handling of
    -n*log1p(-p) is exact to double precision once n exceeds 2**53.
    """
    if dist.prefix_length is None:
        raise InvalidParams(
            f"n = {n} exceeds the float-exact range; only level tables "
            f"support it (got {dist.kind.value})"
        )
    ln_n = math.log(n)
    l2, counts = dist.level_arrays()
    x = ln_n + LN2 * l2
    # ln(n p) <= -746 or n p >= 800 leaves g <= -745, a term of exactly 0
    window = (x > -746.0) & (x < _LN_800)
    x, counts = x[window], counts[window]
    ln_p = LN2 * l2[window]
    with np.errstate(under="ignore"):
        pv = np.exp(np.maximum(ln_p, -690.0))
        ln_neg_l1p = np.where(ln_p > -690.0, np.log(-np.log1p(-pv)), ln_p)
        # -n log1p(-p) = n p (1 + O(p)) stays near or below 800 in the window
        g = x - np.exp(ln_n + ln_neg_l1p)
        t_terms = counts * np.exp(np.maximum(g, -746.0)) * (g > _EXP_UNDERFLOW)
    value = math.fsum(t_terms.tolist())
    z_tr = ln_n + LN2 * dist.beyond_prefix_log2_mass
    # never certify zero beyond a table that leaves mass, even past underflow
    floor = 5e-324 if z_tr > -math.inf else 0.0
    trunc = max(math.exp(z_tr), floor) if z_tr < _EXP_OVERFLOW else math.inf
    return value, trunc, dist.prefix_length


def _series(
    dist: Distribution,
    n: int,
    eps_t: float,
    max_terms: int,
    kernel: _Kernel,
) -> tuple[float, float, int]:
    """(value, trunc, terms) for sum_k p_k w(p_k) on the zeta scale: the one
    dispatch over huge n (past 2**53, for (1-p)^n), level tables and closed
    forms."""
    if n > _FLOAT_N_LIMIT and kernel is _Kernel.BINOMIAL:
        t, trunc_t, terms = _eval_t_large(dist, n)
        ln_n = math.log(n)
        return (math.exp(math.log(t) - ln_n) if t > 0.0 else 0.0,
                math.exp(math.log(trunc_t) - ln_n) if trunc_t > 0.0 else 0.0, terms)
    nf = float(n)
    if dist.prefix_length is None:
        return _eval_closed_form(dist, nf, eps_t, max_terms, kernel)
    p, counts = dist.positive_levels()
    with np.errstate(under="ignore"):
        value = math.fsum((counts * p * kernel.block(p, nf)).tolist())
    return value, dist.tail_mass_bound(dist.prefix_length), dist.prefix_length


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def zeta1(
    dist: Distribution,
    n: int,
    eps: float = DEFAULT_EPS,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> IndexValue:
    """Coverage deficit zeta_n with a certified truncation remainder.

    ``eps`` targets the t_n scale, so the zeta-scale remainder satisfies
    ``trunc_error <= eps / n`` whenever the family's tail certificate can
    reach it within ``max_terms`` summands.
    """
    if n < 1:
        raise InvalidParams("n must be >= 1")
    if eps <= 0.0:
        raise InvalidParams("eps must be positive")
    return IndexValue(n, *_series(dist, n, eps, max_terms, _Kernel.BINOMIAL))


def tn(
    dist: Distribution,
    n: int,
    eps: float = DEFAULT_EPS,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> IndexValue:
    """Tail index t_n = n * zeta_n; the identity holds bit-exactly for every
    n in the float-exact range."""
    if n < 1:
        raise InvalidParams("n must be >= 1")
    if n > _FLOAT_N_LIMIT:
        value, trunc, terms = _eval_t_large(dist, n)
        return IndexValue(n, value, trunc, terms)
    z = zeta1(dist, n, eps, max_terms)
    return IndexValue(n, n * z.value, n * z.trunc_error, z.terms_used)


def evaluate_series(
    dist: Distribution,
    schedule: Sequence[int],
    eps: float = DEFAULT_EPS,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> IndexSeries:
    """t_n along a strictly increasing schedule of sample sizes."""
    points = [tn(dist, int(n), eps, max_terms) for n in schedule]
    return IndexSeries(list(int(n) for n in schedule), points)


def scaled_pair(
    dist: Distribution,
    n: int,
    delta: float,
    eps: float = DEFAULT_EPS,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> tuple[float, float]:
    """(n^{1-delta} sum p(1-p)^n, n^{1-delta} sum p e^{-np}), each member
    certified to eps as zeta1 is: its sum's lower end, within eps/n."""
    if not 0.0 < delta < 1.0:
        raise InvalidParams("delta must lie in (0,1)")
    if n < 1:
        raise InvalidParams("n must be >= 1")
    if n > _FLOAT_N_LIMIT:
        raise InvalidParams("scaled_pair requires n within the float-exact range")
    factor = float(n) ** (1.0 - delta)
    s1, s2 = (_series(dist, n, eps, max_terms, kernel)[0] for kernel in _Kernel)
    return factor * s1, factor * s2


def power_tail_limit(c: float, lam: float) -> float:
    """Limit of n^{1/lambda} * zeta_n for the tail p_k = c k^{-lambda}."""
    if not (lam > 1.0 and c > 0.0):
        raise InvalidParams("power limit requires lambda > 1 and c > 0")
    return c ** (1.0 / lam) * math.gamma(1.0 - 1.0 / lam) / lam


def oscillation_state(dist: Distribution, n: int) -> OscillationState:
    """Locate k* with p_{k*+1} < 1/(n+1) <= p_{k*} and return c(n) = n p_{k*}."""
    if n < 1:
        raise InvalidParams("n must be >= 1")
    if dist.support_size() is not None:
        raise FiniteSupport("oscillation state needs an infinite tail")
    if dist.k0_head != 1:
        raise InvalidParams("oscillation state needs a globally non-increasing tail")
    thr = 1.0 / (n + 1)
    if dist.prob(1) < thr:
        raise InvalidParams("p_1 already below 1/(n+1); no admissible k*")
    if dist.kind is FamilyKind.GEOMETRIC:
        a = dist.spec.params["a"]
        k = max(1, math.floor(math.log(dist.norm_constant * (n + 1)) / math.log(a)))
    else:
        k = 1
        while dist.prob(2 * k) >= thr:
            k *= 2
        lo, hi = k, 2 * k  # prob(lo) >= thr > prob(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if dist.prob(mid) >= thr:
                lo = mid
            else:
                hi = mid
        k = lo
    while dist.prob(k) < thr:
        k -= 1
    while dist.prob(k + 1) >= thr:
        k += 1
    if k < 1:
        raise InvalidParams("no admissible k*")
    c = n * dist.prob(k)
    lower = n / (n + 1.0)
    if c < lower * (1.0 - 1e-12):
        raise AlphatailError(f"c(n) = {c} violates its lower sandwich {lower}")
    if dist.kind is FamilyKind.GEOMETRIC:
        upper = dist.spec.params["a"] * lower
        if c > upper * (1.0 + 1e-12):
            raise AlphatailError(f"c(n) = {c} violates its upper sandwich {upper}")
    return OscillationState(n, k, c)


def oscillation_t(c: float, rel_cutoff: float = 1e-16, max_terms: int = 200) -> float:
    """Limiting oscillation profile for unit-rate geometric tails:

        t(c) = c sum_{j>=0} e^j exp(-c e^j) + c sum_{j>=1} e^{-j} exp(-c e^{-j})

    The forward sum collapses double-exponentially, the backward sum
    geometrically.  Defined for any c > 0; the profile is swept on [1, e].
    """
    if c <= 0.0:
        raise InvalidParams("c must be positive")
    acc = 0.0
    for j in range(max_terms):
        term = c * math.exp(j - c * math.exp(j))
        acc += term
        if term < rel_cutoff * acc:
            break
    for j in range(1, max_terms):
        term = c * math.exp(-j - c * math.exp(-j))
        acc += term
        if term < rel_cutoff * acc:
            break
    return acc


def geometric_band_ceiling() -> float:
    """Explicit upper bound for t_n under a unit-rate geometric tail,
    e^2 (sum_{j>=0} e^j e^{-e^j} + sum_{j>=1} e^{-j} e^{-e^{-j}})."""
    return math.e ** 2 * oscillation_t(1.0)


def em_gap(dist: Distribution, n: int, max_terms: int = 1 << 25) -> EmGap:
    """Lattice sum vs integral for f_n(x) = n^{1-1/lam} c x^{-lam} e^{-n c x^{-lam}}.

    Returns the sum over k >= 1 (n^{1-1/lam} times the e^{-np} series, closed
    and certified as in ``scaled_pair``, so it equals that pair's second
    member at delta = 1/lam), the integral over [1, inf) (the same
    incomplete-gamma tail integral, from y = 1), and the certified unimodal
    gap bound f_n(x0) + 2 f_n(x(n)) with x(n) = (nc)^{1/lam} the mode.
    """
    if dist.kind is not FamilyKind.POWER:
        raise InvalidParams("the sum-integral gap is instantiated for power tails only")
    if n < 1:
        raise InvalidParams("n must be >= 1")
    lam = dist.spec.params["lambda"]
    c = dist.norm_constant
    nf = float(n)
    scale = nf ** (1.0 - 1.0 / lam)
    f_mode = 1.0 / (math.e * nf ** (1.0 / lam))
    bound = scale * c * math.exp(-nf * c) + 2.0 * f_mode
    value, trunc, _ = _series(dist, n, DEFAULT_EPS, max_terms, _Kernel.POISSON)
    lattice = scale * value
    integral = scale * _power_tail_integral(c, lam, nf, 1.0, _Kernel.POISSON)
    if abs(lattice - integral) > bound + scale * trunc:
        raise AlphatailError("sum-integral gap exceeded its certified bound")
    return EmGap(lattice, integral, bound, f_mode)
