"""Tail-index evaluation with certified truncation.

The central objects are the coverage deficit ``zeta_n = sum_k p_k (1-p_k)^n``
(the chance that one more draw lands on an unseen letter) and the tail index
``t_n = n * zeta_n``.  Each evaluation returns a lower-bound ``value``
together with a certified ``trunc_error`` so that the true quantity lies in
``[value, value + trunc_error]`` up to float rounding.  Closed forms are
summed in index-ordered blocks of 2^10, 2^11, ..., 2^16 values and then
2^16 each, small enough to stay in cache, each with NumPy's pairwise sum,
and the block sums with ``math.fsum``; a level table's sum (a finite
vector's or a constructed prefix's) is ``math.fsum``'s correctly rounded
one, computed from the terms within 2^-60 of the largest with the rest
certified below half an ulp (``_exact_sum``), so its value does not depend
on the order of its levels and a finite vector's ``trunc_error`` is
exactly 0.  That sum runs over the levels whose term can be nonzero: those
with p > 0 in float for n up to 2**53, those with -746 < ln(n p) < ln 800
beyond, one slice of the levels in non-increasing order of p, found by
binary search.  Every other term is exactly 0, so the value is the full
table's bit for bit.

A schedule of n is evaluated in two steps.  Each n first finds where its
head stops, from the tail certificates alone; then one sweep over the
blocks, up to the largest stop, sums the head of every n.  A block's p and
log1p(-p) do not depend on n, so they are computed once for all the n whose
head reaches the block, as a level table's are once for all n.  Every
result is bit for bit that of its n evaluated on its own.

One evaluator sums ``sum_k p_k w(p_k)`` for either of two kernels: Turing's
``w(p) = (1-p)^n`` (``zeta1``, ``tn``) and its Poissonized twin
``w(p) = e^{-np}`` (the second member of ``scaled_pair``, ``em_gap``).

Truncation bounds are family-aware.  Power and log-power tails are closed
analytically by ``zoo.tail_sandwich``, with which ``zoo`` also normalizes
them; ``zoo`` describes its tail integrals (incomplete beta and gamma
functions, an alternating series).  Once ``f(x) = p w(p)`` is convex on
``[K+1/2, inf)`` the omitted sum lies between the trapezoid and midpoint
sandwiches ``int_{K+1}^inf f + f(K+1)/2`` and ``int_{K+1/2}^inf f``, about
``|f'(K)|/8`` apart.  A log-power tail where ``f'''' >= 0`` as well closes
with second-order Euler-Maclaurin instead: with a = K+1 the sum lies within
``|f'''(a)|/384`` below ``int_a^inf f + f(a)/2 - f'(a)/12``, a width that
falls like K^-4 rather than K^-2, so at ``eps = 1e-9`` the tail closes at the
first block end past the onset of ``f'''' >= 0``.  The lower end is added to
``value`` and the width, never less than one ulp of the upper end, is the
``trunc_error``; the sum stops once it reaches that floor, which later
blocks lower only as the tail falls past a power of two (for
``logpower:lambda=2,k0=2`` at ``eps = 1e-9`` the floor is above eps from n
of about 1.45e8).  Other infinite tails use a dyadic-block upper bound
built from the family's tail-mass certificate, valid for both kernels
since ``p(1-p)^n <= p e^{-np}``.  Neither bound reads
the head sum, so the stop is found before any block is summed, with a
search over block ends for where the sandwich closes.  ``eps`` is a target
on the t_n scale; a tail that cannot certify it within ``max_terms``
summands stops at the cap.  If the summand is not yet convex there (a
small ``max_terms``; for ``logpower:lambda=2,k0=2`` under the default cap,
n above about 4.8e9), the sound lower term ``w(p_{K+1})`` times the
certified lower tail mass joins ``value``; either way the honest, larger
``trunc_error`` is reported instead of a guess.  Float rounding and the
normalizer's halfwidth lie outside ``trunc_error``.

Very large n (beyond 2**53, needed for the diffusion family's probe
subsequences) is supported for ``(1-p)^n`` over level tables: terms are
assembled from ``ln n`` and exact log2 probabilities, so neither n nor p is
ever materialized as a float, and each n costs two binary searches plus
work on its window of levels, not a pass over the table.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import AlphatailError, FiniteSupport, InvalidParams, positive_integer
from .zoo import LN2, Distribution, FamilyKind, Kernel, power_tail_integral, tail_sandwich

DEFAULT_EPS = 1e-9          # t_n-scale truncation target for CLI-level calls
DEFAULT_MAX_TERMS = 1 << 24

_FLOAT_N_LIMIT = 1 << 53
_EXP_OVERFLOW = 709.0
_EXP_UNDERFLOW = -745.0
_LN_800 = math.log(800.0)
_EXACT_SUM_MIN = 128        # shorter level tables go straight to math.fsum
_FIRST_BLOCK = 1 << 10      # closed-form blocks double from 2^10 values
_DOUBLINGS = 6              # six times, then stay at 2^16, which fits in cache
_MAX_BLOCK = _FIRST_BLOCK << _DOUBLINGS
# each end of a closed tail's bracket carries a few ulps of rounding, so near
# its one-ulp floor the computed width moves by about 2 ulps between blocks
_ROUNDING_ULPS = 3.0


@dataclass(frozen=True)
class IndexValue:
    """One certified evaluation: true quantity in [value, value+trunc_error]."""

    n: int
    value: float
    trunc_error: float
    terms_used: int

    def __post_init__(self):
        if not (self.value >= 0.0 and self.trunc_error >= 0.0):
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


# ---------------------------------------------------------------------------
# Core evaluators
# ---------------------------------------------------------------------------

def _terms(L: np.ndarray, big: Optional[tuple], n: float, factor: np.ndarray | float,
           out: np.ndarray) -> np.ndarray:
    """factor * w(p) at n, from ``Kernel.log_weight``'s (L, big), into
    ``out``, which may be L itself when no other n needs it."""
    w = np.multiply(L, n, out=out)
    np.exp(w, out=w)
    if big is not None:
        w[big[0]] = np.power(big[1], n)
    w *= factor
    return w


def _block_end(i: int) -> int:
    """The index K that ends block i = 0, 1, ...: blocks hold 2^10, 2^11, ...,
    2^16 values (K = 130,048 after those seven), then 2^16 values each."""
    d = min(i, _DOUBLINGS)
    return _FIRST_BLOCK * ((2 << d) - 1) + (i - d) * _MAX_BLOCK


def _first_block(i: int, max_terms: int, meets: Callable[[int], bool]) -> int:
    """The first block from i on that meets, or one that ends at
    ``max_terms`` or past it, if ``meets`` holds from some block on: steps
    of 1, 2, 4, ... blocks, then bisection inside the last step."""
    lo, step = i - 1, 1
    while _block_end(lo + step) < max_terms and not meets(lo + step):
        lo, step = lo + step, 2 * step
    return lo + 1 + bisect.bisect_left(range(lo + 1, lo + step), True, key=meets)


def _stop(dist: Distribution, n: float, eps_t: float, max_terms: int,
          kernel: Kernel) -> tuple[int, float, float]:
    """(K, tail_lo, width): where the head of sum_k p_k w(p_k) over a closed
    form stops, and the lower end and width of the omitted tail's bracket.

    The head is summed in blocks (see ``_block_end``) up to the first block
    end K where the bracket is narrower than eps_t / n or one ulp.  Power
    and log-power tails close with their sandwich once the summand is
    convex; other tails with the dyadic upper bound alone, which bounds
    p e^{-np} >= p (1-p)^n and so serves both kernels.  A tail that reaches
    ``max_terms`` unmet before it is convex takes the lower bound w(p_{K+1})
    times the certified lower tail mass, sound because p_k <= p_{K+1}
    beyond K.  No rule reads the head sum, so K is found from the
    certificates alone.

    Once the summand is convex at a block end, ``_first_block`` searches the
    remaining block ends (up to ``max_terms``) for the first one where the
    sandwich comes within ``_ROUNDING_ULPS`` of closing, and the block ends
    before it are not tested.  The slack keeps the search at or before the
    first block end that closes, although near the one-ulp floor rounding
    moves the computed width up and down from one block end to the next.
    From there every block end is tested again, so the stop is the
    sandwich's own at the block end reached and never rests on the search.
    """
    def closes(lo: float, hi: float, slack: float = 0.0) -> bool:
        """Whether [lo, hi], less ``slack`` ulps, meets eps_t / n or the
        one-ulp floor, which no later block narrows."""
        w = hi - lo - slack * math.ulp(hi)
        return n * max(w, math.ulp(hi)) <= eps_t or w <= math.ulp(hi)

    def nearly_closes(i: int) -> bool:
        return closes(*bracket(min(_block_end(i), max_terms)), _ROUNDING_ULPS)

    sandwich = tail_sandwich(dist.kind, dist.norm_constant, dist.spec.params, n, kernel)
    if sandwich is not None:
        # the search for the closing block and the stop test share evaluations
        bracket = functools.cache(sandwich.bracket)
    i = 0
    searched = False
    tail_lo, tail_hi = 0.0, math.inf
    while True:
        K = min(_block_end(i), max_terms)
        i += 1
        capped = K >= max_terms
        closed = sandwich is not None and sandwich.convex(K + 0.5)
        if closed:
            tail_lo, tail_hi = bracket(K)
        elif K >= dist.k0_head and (capped or sandwich is None):
            tail_hi = _series_tail_bound(dist, K, n)
        # never certify a zero width for an infinite tail: at least one ulp
        width = max(tail_hi - tail_lo, math.ulp(tail_hi))
        if (closed and closes(tail_lo, tail_hi)) or n * width <= eps_t:
            return K, tail_lo, width
        if capped:
            if not closed and K >= dist.k0_head:
                p1 = math.exp(dist.log_prob(K + 1))
                tail_lo = min(dist.tail_mass_lower(K) * kernel.at(p1, n), tail_hi)
                width = max(tail_hi - tail_lo, math.ulp(tail_hi))
            return K, tail_lo, width
        if closed and not searched:
            searched = True
            i = _first_block(i, max_terms, nearly_closes)


def _sweep(dist: Distribution, ns: Sequence[float], stops: Sequence[tuple[int, float, float]],
           max_terms: int, kernel: Kernel) -> list[tuple[float, float, int]]:
    """(value, trunc, terms) at every n of ns from its stop (K, tail_lo,
    width): the head sum_{k<=K} p_k w(p_k) plus tail_lo, summed for all of
    ns in one sweep over the blocks up to the largest K.

    Each block's p = exp(log p), and its L and p > 0.99 test (see
    ``Kernel.log_weight``), are computed once for every n whose K reaches
    the block.  A block's terms are summed with NumPy's pairwise sum and the
    block sums of each n with ``math.fsum``, as one n on its own does, so
    every value is bit for bit that of its own evaluation.  The sweep holds
    one block's arrays, whatever the number of n.
    """
    sums: list[list[float]] = [[] for _ in ns]
    live = range(len(ns))
    i = K = 0
    while True:
        # the n whose K lies past this block's start; K is a block end
        live = [j for j in live if stops[j][0] > K]
        if not live:
            break
        hi = min(_block_end(i), max_terms)
        p = dist.log_prob_block(K + 1, hi + 1)
        np.exp(p, out=p)
        L, big = kernel.log_weight(p)
        out = L if len(live) == 1 else np.empty_like(L)
        for j in live:
            sums[j].append(float(_terms(L, big, ns[j], p, out).sum()))
        K = hi
        i += 1
    return [(math.fsum(s) + lo, width, K) for s, (K, lo, width) in zip(sums, stops)]


def _exact_sum(terms: np.ndarray) -> float:
    """``math.fsum(terms.tolist())`` bit for bit for a nonnegative float64
    array, with only the head, the terms >= max * 2^-60, summed exactly.

    The head's sum S rounds to s = fsum(head), so S >= s - (gap below s)/2,
    and the total lies in [S, S + B], B the rest's pairwise sum widened past
    its rounding.  If S + B < s + ulp(s)/2, tested exactly by the sign of
    one more fsum, the total rounds to s too; every other array, short ones
    and those with a non-finite or zero maximum included, goes to fsum whole.
    """
    top = float(terms.max()) if len(terms) >= _EXACT_SUM_MIN else math.nan
    if math.isfinite(top):
        is_head = terms >= top * 2.0 ** -60
        head, rest = terms[is_head].tolist(), terms[~is_head]
        s = math.fsum(head)
        bound = float(rest.sum()) * (1.0 + 1e-9) + len(rest) * 5e-324
        if math.fsum(head + [bound, -s, -math.ulp(s) / 2.0]) < 0.0:
            return s
    return math.fsum(terms.tolist())


def _huge_n_window(l2: np.ndarray, ln_n: float) -> np.ndarray:
    """Indices of the levels with -746 < ln(n p) < ln 800 in a table of
    log2 p in non-increasing order: at n past 2**53, ln(n p) <= -746 or
    n p >= 800 puts the log of a level's term at or below -745, a term of
    exactly 0.

    ln(n p) = ln n + LN2 log2 p falls along the table, so these levels are
    one slice of it.  Two binary searches find the slice on thresholds
    widened far past the rounding of either side, and the exact test then
    cuts it to the levels a scan of the whole table would keep.
    """
    pad = 1.0 + 1e-9 * ln_n
    ascending = l2[::-1]
    lo = int(np.searchsorted(ascending, (-746.0 - ln_n) / LN2 - pad))
    hi = int(np.searchsorted(ascending, (_LN_800 - ln_n) / LN2 + pad, side="right"))
    start = len(l2) - hi
    x = ln_n + LN2 * l2[start:len(l2) - lo]
    return start + np.flatnonzero((x > -746.0) & (x < _LN_800))


def _eval_t_large(dist: Distribution, n: int) -> tuple[float, float, int]:
    """t_n for level tables at arbitrarily large integer n.

    Works from ln n and log2 probabilities only; the asymptotic handling of
    -n*log1p(-p) is exact to double precision once n exceeds 2**53.  Only
    the levels of ``_huge_n_window`` are summed, by ``_exact_sum``, so the
    value is bit for bit the fsum of the whole table.
    """
    if dist.prefix_length is None:
        raise InvalidParams(
            f"n = {n} exceeds the float-exact range; only level tables "
            f"support it (got {dist.kind.value})"
        )
    ln_n = math.log(n)
    l2, counts = dist.descending_levels()
    window = _huge_n_window(l2, ln_n)
    counts = counts[window]
    ln_p = LN2 * l2[window]
    x = ln_n + ln_p
    with np.errstate(under="ignore"):
        pv = np.exp(np.maximum(ln_p, -690.0))
        ln_neg_l1p = np.where(ln_p > -690.0, np.log(-np.log1p(-pv)), ln_p)
        # -n log1p(-p) = n p (1 + O(p)) stays near or below 800 in the window
        g = x - np.exp(ln_n + ln_neg_l1p)
        t_terms = counts * np.exp(np.maximum(g, -746.0)) * (g > _EXP_UNDERFLOW)
    value = _exact_sum(t_terms)
    z_tr = ln_n + LN2 * dist.beyond_prefix_log2_mass
    # never certify zero beyond a table that leaves mass, even past underflow
    floor = 5e-324 if z_tr > -math.inf else 0.0
    trunc = max(math.exp(z_tr), floor) if z_tr < _EXP_OVERFLOW else math.inf
    return value, trunc, dist.prefix_length


# one floating-point error state per evaluation: exp underflows to 0 far down
# a tail, log1p(-1) is -inf for a letter of probability 1
@np.errstate(under="ignore", divide="ignore", over="ignore")
def _series_points(dist: Distribution, ns: Sequence[float], eps_t: float, max_terms: int,
                   kernel: Kernel) -> list[tuple[float, float, int]]:
    """(value, trunc, terms) for sum_k p_k w(p_k) on the zeta scale at every
    n of ns, all within the float-exact range: a closed form's blocks, or a
    level table's L (see ``Kernel.log_weight``), are shared by all of ns,
    and each result is bit for bit that of its n on its own; a level
    table's terms at each n are summed by ``_exact_sum``.  A target
    ``eps_t`` that is not positive (NaN included) raises InvalidParams
    before any work."""
    if not ns:
        return []
    if not eps_t > 0.0:
        raise InvalidParams(f"eps must be positive, got {eps_t!r}")
    if dist.prefix_length is None:
        return _sweep(dist, ns, [_stop(dist, n, eps_t, max_terms, kernel) for n in ns],
                      max_terms, kernel)
    p, counts = dist.positive_levels()
    L, big = kernel.log_weight(p)
    out = L if len(ns) == 1 else np.empty_like(L)
    factor = counts * p
    trunc = dist.tail_mass_bound(dist.prefix_length)
    return [(_exact_sum(_terms(L, big, n, factor, out)), trunc, dist.prefix_length)
            for n in ns]


def _certified_sum(dist: Distribution, n: int, eps: float, max_terms: int,
                   kernel: Kernel) -> tuple[float, float]:
    """(value, trunc) of sum_k p_k w(p_k) at n for callers that keep only
    ``value``: a series that stops at ``max_terms`` with n * trunc > eps
    raises AlphatailError instead of returning an uncertified lower end."""
    value, trunc, terms = _series_points(dist, [float(n)], eps, max_terms, kernel)[0]
    if terms == max_terms and n * trunc > eps:
        raise AlphatailError(f"the {kernel.value} series at n = {n} stops at max_terms = {max_terms} "
                             f"with width {n * trunc:.3g} on the t_n scale, above eps = {eps:g}")
    return value, trunc


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
    reach it within ``max_terms`` summands.  Past 2**53 it is t_n / n,
    summed over the whole table, and ``eps`` is not read.
    """
    n = positive_integer(n)
    if n <= _FLOAT_N_LIMIT:
        return IndexValue(n, *_series_points(dist, [float(n)], eps, max_terms, Kernel.BINOMIAL)[0])
    *t_scale, terms = _eval_t_large(dist, n)
    return IndexValue(n, *(math.exp(math.log(v) - math.log(n)) if v > 0.0 else 0.0 for v in t_scale), terms)


def tn(
    dist: Distribution,
    n: int,
    eps: float = DEFAULT_EPS,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> IndexValue:
    """Tail index t_n = n * zeta_n; the identity holds bit-exactly for every
    n in the float-exact range."""
    return evaluate_series(dist, [n], eps, max_terms).points[0]


def evaluate_series(
    dist: Distribution,
    schedule: Sequence[int],
    eps: float = DEFAULT_EPS,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> IndexSeries:
    """t_n along a strictly increasing schedule of positive integers, every
    point bit for bit ``tn``'s; a schedule that is not raises InvalidParams
    before any point is evaluated.  The points in the float-exact range are
    evaluated together: each stops where its own certificate closes, and
    one sweep sums a closed form's blocks for all of them, or one pass a
    level table's levels.  Points past 2**53 are evaluated one at a time,
    each over the window of levels that can carry a term, found by binary
    search."""
    ns = [positive_integer(n) for n in schedule]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise InvalidParams("schedule must be strictly increasing")
    floats = [n for n in ns if n <= _FLOAT_N_LIMIT]
    zetas = iter(_series_points(dist, [float(n) for n in floats], eps, max_terms, Kernel.BINOMIAL))
    points = []
    for n in ns:
        if n > _FLOAT_N_LIMIT:
            points.append(IndexValue(n, *_eval_t_large(dist, n)))
        else:
            value, trunc, terms = next(zetas)
            points.append(IndexValue(n, n * value, n * trunc, terms))
    return IndexSeries(ns, points)


def scaled_pair(
    dist: Distribution,
    n: int,
    delta: float,
    eps: float = DEFAULT_EPS,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> tuple[float, float]:
    """(n^{1-delta} sum p(1-p)^n, n^{1-delta} sum p e^{-np}), each member
    certified to eps as zeta1 is: its sum's lower end, within eps/n.  A
    member whose series stops at ``max_terms`` short of eps raises
    AlphatailError, naming n, the width reached and eps."""
    if not 0.0 < delta < 1.0:
        raise InvalidParams("delta must lie in (0,1)")
    n = positive_integer(n)
    if n > _FLOAT_N_LIMIT:
        raise InvalidParams("scaled_pair requires n within the float-exact range")
    factor = float(n) ** (1.0 - delta)
    s1, s2 = (_certified_sum(dist, n, eps, max_terms, kernel)[0] for kernel in Kernel)
    return factor * s1, factor * s2


def power_tail_limit(c: float, lam: float) -> float:
    """Limit of n^{1-1/lambda} zeta_n = n^{-1/lambda} t_n for the tail
    p_k = c k^{-lambda}."""
    if not (lam > 1.0 and c > 0.0):
        raise InvalidParams("power limit requires lambda > 1 and c > 0")
    return c ** (1.0 / lam) * math.gamma(1.0 - 1.0 / lam) / lam


def oscillation_state(dist: Distribution, n: int) -> OscillationState:
    """Locate k* with p_{k*+1} < 1/(n+1) <= p_{k*} and return c(n) = n p_{k*}."""
    n = positive_integer(n)
    if dist.support_size() is not None:
        raise FiniteSupport("oscillation state needs an infinite tail")
    if dist.k0_head != 1:
        raise InvalidParams("oscillation state needs a globally non-increasing tail")
    thr = 1.0 / (n + 1)
    if dist.prob(1) < thr:
        raise InvalidParams("p_1 already below 1/(n+1); no admissible k*")
    # the tail is non-increasing from k = 1: double past k*, then bisect
    hi = 2
    while dist.prob(hi) >= thr:
        hi *= 2
    k = bisect.bisect_left(range(1, hi + 1), True, key=lambda k: dist.prob(k) < thr)
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
    gap bound f_n(x0) + 2 f_n(x(n)) with x(n) = (nc)^{1/lam} the mode.  A
    sum that stops at ``max_terms`` short of DEFAULT_EPS raises
    AlphatailError, as in ``scaled_pair``.
    """
    if dist.kind is not FamilyKind.POWER:
        raise InvalidParams("the sum-integral gap is instantiated for power tails only")
    n = positive_integer(n)
    lam = dist.spec.params["lambda"]
    c = dist.norm_constant
    nf = float(n)
    scale = nf ** (1.0 - 1.0 / lam)
    f_mode = 1.0 / (math.e * nf ** (1.0 / lam))
    bound = scale * c * math.exp(-nf * c) + 2.0 * f_mode
    value, trunc = _certified_sum(dist, n, DEFAULT_EPS, max_terms, Kernel.POISSON)
    lattice = scale * value
    integral = scale * power_tail_integral(c, lam, nf, 1.0, Kernel.POISSON)
    if abs(lattice - integral) > bound + scale * trunc:
        raise AlphatailError("sum-integral gap exceeded its certified bound")
    return EmGap(lattice, integral, bound, f_mode)
