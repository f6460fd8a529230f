"""Sampling and unbiased estimation of the tail index from iid data.

``sample`` draws how many of the n draws land in each block of
``dist.prob_blocks``, not the draws themselves: the multinomial by
conditional binomials (Devroye, *Non-Uniform Random Variate Generation*,
1986, ch. XI).  A block of mass b takes Binomial(left, b / (b + T)) of the
draws left, T the certified mass past its end (``tail_mass_bound``), so no
probability comes from 1 - a running sum, which cancels deep in a tail.  T
is an upper bound, so each block's share is low by at most T's certified
bracket: a relative 1.9e-9 of T at the first block end of power:lambda=2
(9.2e-9 at lambda=3), less after.  The m draws of a block go into its
letters through one multinomial or, when m is below the block's length, as
m uniforms against its CDF.  The walk stops once no draw is left and holds
one block at a time, whatever n; keys come out ascending.

The walk ends at letter _MAX_LETTER or at the end of a level table.  The
draws past that end are drawn first, one binomial on the certified mass
beyond it, so a draw there raises SamplerLimit past the cap, or
DepthExceeded past a constructed prefix, before any block is walked; the
last block then takes every draw left.  A sample is bit-reproducible for a
given seed and holds at most _MAX_SAMPLE draws.

``z1v`` implements the unbiased estimator of the coverage deficit: with m_y
the number of letters seen y times in a sample of size n, for any order
1 <= v <= n-1,

    Z_{1,v} = [(n-1-v)! / n!] * sum_k y_k * (n-y_k)! / (n-y_k-v)!
            = (1/(n-v)) * sum_y y m_y prod_{j<v} (1 - y/(n-j)),

and t_hat_v = v * Z_{1,v} estimates t_v.  ``estimator_report`` gives every
requested v in one NumPy pass: the log of each product is a running sum of
``log1p`` terms, which does not cancel, taken along j with rows y or, as the
product equals prod_{i<y} (1 - v/(n-i)), along i with rows v, whichever is
cheaper: O(min(Y v_max, |V| y_max)) for Y distinct counts and |V| orders.

``exact_expectation`` is the brute-force oracle: it enumerates every count
vector of a small multinomial in exact rational arithmetic, which pins the
unbiasedness identities E[Z_{1,v}] = zeta_v, E[N_1/n] = zeta_{n-1} and
E[pi_0] = zeta_n without floating-point luck.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import factorial
from typing import Iterable, Optional

import numpy as np

from .errors import DepthExceeded, InvalidParams, InvalidV, SamplerLimit, TooLarge, positive_integer
from .zoo import Distribution

_ORACLE_MAX_N = 12
_ORACLE_MAX_K = 6
_MAX_LETTER = 1 << 24       # the deepest letter a sample may reach
_MAX_SAMPLE = 1 << 27       # draws per sample: bounds the estimator's work, not memory
_BLOCK_VALUES = 1 << 16     # log1p terms per block of the Z_{1,v} running sum
_EXP_ZERO = -746.0          # exp of anything below is exactly 0.0


@dataclass(frozen=True)
class FrequencyTable:
    """Observed letter counts of one sample; keys are alphabet indices k >= 1."""

    n: int
    counts: dict = field(default_factory=dict)

    def __post_init__(self):
        total = 0
        for k, y in self.counts.items():
            positive_integer(k, "letter k")
            total += positive_integer(y, "count y")
        if total != self.n:
            raise InvalidParams(f"counts sum to {total}, expected n = {self.n}")

    @property
    def n1(self) -> int:
        return sum(1 for y in self.counts.values() if y == 1)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["k", "y"])
        for k in sorted(self.counts):
            w.writerow([k, self.counts[k]])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "FrequencyTable":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["k", "y"]:
            raise InvalidParams("frequency CSV must start with header 'k,y'")
        counts = {}
        for line, row in enumerate(rows[1:], start=2):
            try:
                k, y = (int(x) for x in row)
            except ValueError:
                raise InvalidParams(f"line {line}: expected two integers k,y, got {row!r}") from None
            if k in counts:
                raise InvalidParams(f"line {line}: letter {k} repeats")
            counts[k] = y
        if not counts:
            raise InvalidParams("frequency CSV has no rows; a sample holds at least one draw")
        return cls(sum(counts.values()), counts)


@dataclass(frozen=True)
class EstimatorReport:
    v_values: list
    z1v: list
    t_hat: list


class Statistic(Enum):
    Z1V = "z1v"
    TURING = "turing"
    MISSING_MASS = "missing_mass"


def sample(dist: Distribution, n: int, seed: int) -> FrequencyTable:
    """Draw n iid letters; deterministic for a given 64-bit seed.  n must be
    a positive integer and the seed a nonnegative one (NumPy's included);
    anything else raises InvalidParams before any draw."""
    n = positive_integer(n)
    seed = positive_integer(seed, "seed", zero=True)
    if n > _MAX_SAMPLE:
        raise SamplerLimit(f"sample size {n} exceeds the cap of {_MAX_SAMPLE} draws")
    rng = np.random.default_rng(seed)
    # the draws past the walk's end come first, so that the walk never
    # starts for a sample it would refuse
    end = min(dist.prefix_length or _MAX_LETTER, _MAX_LETTER)
    beyond = dist.tail_mass_bound(end)
    if rng.binomial(n, beyond):
        if end < _MAX_LETTER:
            raise DepthExceeded("a draw landed beyond the constructed family's prefix")
        raise SamplerLimit(f"a draw landed beyond letter {_MAX_LETTER}")
    counts: dict = {}
    left = n
    for start, p in dist.prob_blocks(end + 1):
        b = float(p.sum())
        # the certified mass between this block's end and the walk's: none
        # at the walk's last block, which takes every draw left
        rest = dist.tail_mass_bound(start + len(p) - 1) - beyond
        m = int(rng.binomial(left, b / (b + rest))) if rest > 0.0 else left
        if m == 0:
            continue
        if m < len(p):
            cdf = np.cumsum(p)
            seen, ys = np.unique(np.searchsorted(cdf, rng.random(m) * cdf[-1], side="right"),
                                 return_counts=True)
        else:
            ys = rng.multinomial(m, np.divide(p, b, out=p))
            seen = np.flatnonzero(ys)
            ys = ys[seen]
        counts.update(zip((seen + start).tolist(), ys.tolist()))
        left -= m
        if left == 0:
            break
    return FrequencyTable(n, counts)


def turing(freq: FrequencyTable) -> float:
    """Proportion of singletons, the sample-based coverage-deficit estimate."""
    return freq.n1 / freq.n


def true_missing_mass(dist: Distribution, freq: FrequencyTable) -> float:
    """Total probability of the letters not present in the sample."""
    observed = math.fsum(dist.prob(k) for k in freq.counts)
    return max(0.0, 1.0 - observed)


def z1v(freq: FrequencyTable, v: int) -> float:
    return estimator_report(freq, [v]).z1v[0]


def t_hat(freq: FrequencyTable, v: int) -> float:
    """Unbiased estimate of t_v, namely v * Z_{1,v}."""
    return v * z1v(freq, v)


def estimator_report(freq: FrequencyTable, v_values: Iterable[int]) -> EstimatorReport:
    """Z_{1,v} and t_hat_v for every v in ``v_values``, in one pass."""
    n = freq.n
    vs = [positive_integer(v, "v", InvalidV) for v in v_values]
    for v in vs:
        if v > n - 1:
            raise InvalidV(f"v must lie in [1, n-1], got v={v} with n={n}")
    if not vs:
        return EstimatorReport([], [], [])
    ys, m = np.unique(np.fromiter(freq.counts.values(), np.int64), return_counts=True)
    w = (ys * m).astype(float)
    v_set, back = np.unique(vs, return_inverse=True)
    total = np.zeros(len(v_set))
    with np.errstate(under="ignore"):
        if len(ys) * v_set[-1] <= len(v_set) * ys[-1]:
            # rows y, the product over j < v
            for lo, hi, prods in _products(ys, v_set, n):
                total[lo:hi] = (prods * w[:, None]).sum(axis=0)
        else:
            # rows v, the product over i < y
            for lo, hi, prods in _products(v_set, ys, n):
                total += (prods * w[lo:hi]).sum(axis=1)
    zs = (total / (n - v_set))[back].tolist()
    return EstimatorReport(vs, zs, [v * z for v, z in zip(vs, zs)])


def _products(a: np.ndarray, t: np.ndarray, n: int):
    """Yield (lo, hi, prods) per block: prods[r, c] = prod_{i < t[lo+c]}
    (1 - a[r]/(n-i)) for the sorted ends t[lo:hi] inside the block.  Logs
    run as a cumulative sum, with the exact rounding error of each addition
    (TwoSum) in a second one; a zero or negative factor counts as e^-1000.
    Blocks grow to _BLOCK_VALUES terms and stop once every row is below
    -746, where each later product is exactly 0 in float."""
    rows, a = len(a), a.astype(float)
    width, cap = max(1, 4096 // rows), max(1, _BLOCK_VALUES // rows)
    s_end, err_end = np.zeros((rows, 1)), np.zeros((rows, 1))
    start = lo = 0
    while start < t[-1]:
        stop = min(start + width, int(t[-1]))
        den = n - np.arange(start, stop, dtype=float)
        x = a[:, None] / den
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.log1p(-x)
        # past one half, 1 - x in one rounding keeps the log accurate
        r, c = np.divmod(np.flatnonzero(x > 0.5), len(den))
        q = (den[c] - a[r]) / den[c]
        terms[r, c] = np.log(q, out=np.full(len(q), -1e3), where=q > 0.0)
        s = np.cumsum(np.concatenate((s_end, terms), axis=1), axis=1)
        prev, s = s[:, :-1], s[:, 1:]
        b = s - prev
        err = err_end + np.cumsum((prev - (s - b)) + (terms - b), axis=1)
        s_end, err_end = s[:, -1:], err[:, -1:]
        hi = int(np.searchsorted(t, stop, side="right"))
        cols = t[lo:hi] - 1 - start
        yield lo, hi, np.exp(s[:, cols]) * np.exp(err[:, cols])
        if s_end.max() < _EXP_ZERO:
            return
        start, lo, width = stop, hi, min(2 * width, cap)


# ---------------------------------------------------------------------------
# Exact expectation oracle
# ---------------------------------------------------------------------------

def _rational_probs(dist: Distribution) -> list[Fraction]:
    """The nonzero probabilities, aligned with support_size()."""
    l2, counts = dist.level_arrays()
    probs = [Fraction(float(p)) for p in np.exp2(np.repeat(l2, counts.astype(np.int64))) if p > 0.0]
    total = sum(probs)
    return [p / total for p in probs]


def _count_vectors(K: int, n: int):
    if K == 1:
        yield (n,)
        return
    for y in range(n + 1):
        for rest in _count_vectors(K - 1, n - y):
            yield (y,) + rest


def _z1v_exact(ys: tuple, n: int, v: int) -> Fraction:
    acc = 0
    for y in ys:
        if y == 0 or n - y < v:
            continue
        ff = 1
        for j in range(v):
            ff *= n - y - j
        acc += y * ff
    return Fraction(acc * factorial(n - 1 - v), factorial(n))


def exact_expectation(
    dist: Distribution,
    n: int,
    statistic: Statistic,
    v: Optional[int] = None,
) -> Fraction:
    """Exact rational E[statistic] over all samples of size n from a small
    finite distribution (probabilities taken as exact binary rationals and
    renormalized, a perturbation below 1e-15).  An n that is not a positive
    integer raises InvalidParams."""
    n = positive_integer(n)
    K = dist.support_size()
    if K is None or K > _ORACLE_MAX_K:
        raise TooLarge(f"oracle supports finite alphabets with K <= {_ORACLE_MAX_K}")
    if n > _ORACLE_MAX_N:
        raise TooLarge(f"oracle supports n <= {_ORACLE_MAX_N}")
    if statistic is Statistic.Z1V:
        if v is None or not 1 <= v <= n - 1:
            raise InvalidV("Z1v oracle needs v in [1, n-1]")
    probs = _rational_probs(dist)
    expectation = Fraction(0)
    for ys in _count_vectors(K, n):
        coef = factorial(n)
        for y in ys:
            coef //= factorial(y)
        weight = Fraction(coef)
        for y, p in zip(ys, probs):
            if y:
                weight *= p ** y
        if weight == 0:
            continue
        if statistic is Statistic.Z1V:
            value = _z1v_exact(ys, n, v)
        elif statistic is Statistic.TURING:
            value = Fraction(sum(1 for y in ys if y == 1), n)
        else:
            value = sum((p for y, p in zip(ys, probs) if y == 0), Fraction(0))
        expectation += weight * value
    return expectation


def exact_zeta(dist: Distribution, v: int) -> Fraction:
    """sum_k p_k (1-p_k)^v in the oracle's exact rational arithmetic; a v
    that is not a nonnegative integer raises InvalidV."""
    v = positive_integer(v, "v", InvalidV, zero=True)
    probs = _rational_probs(dist)
    return sum((p * (1 - p) ** v for p in probs), Fraction(0))
