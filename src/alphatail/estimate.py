"""Sampling and unbiased estimation of the tail index from iid data.

``sample`` draws n uniforms and maps them through the prefix sums of p_k
(inverse CDF); it is bit-reproducible for a given seed.  It sorts the draws
once and counts them one CDF block at a time: letter k takes the draws in
[cdf[k-2], cdf[k-1]), the draws below its entry minus those below the
previous one (one search into the sorted sample per CDF entry).  Only one
block of the CDF is held at a time, however far the tail reaches.  A sample
holds at most _MAX_SAMPLE draws.

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
_MAX_CDF_ENTRIES = 1 << 24  # letters one sample may sum p_k over
_MAX_SAMPLE = 1 << 27       # 1 GiB of float64 draws
_BLOCK_VALUES = 1 << 16     # log1p terms per block of the Z_{1,v} running sum
_EXP_ZERO = -746.0          # exp of anything below is exactly 0.0


@dataclass(frozen=True)
class FrequencyTable:
    """Observed letter counts of one sample; keys are alphabet indices k >= 1."""

    n: int
    counts: dict = field(default_factory=dict)

    def __post_init__(self):
        total = sum(self.counts.values())
        if total != self.n:
            raise InvalidParams(f"counts sum to {total}, expected n = {self.n}")
        if any(y <= 0 for y in self.counts.values()):
            raise InvalidParams("counts must be strictly positive")

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
            if k < 1:
                raise InvalidParams(f"line {line}: letter {k} is not >= 1")
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
    u = np.random.default_rng(seed).random(n)
    u.sort()
    # letter k takes the draws in [cdf[k-2], cdf[k-1]): the draws below its
    # entry minus those below the previous one
    counts: dict = {}
    below = 0
    for start, cdf in _cdf_blocks(dist, float(u[-1])):
        ends = np.concatenate(([below], np.searchsorted(u, cdf, side="left")))
        ys = ends[1:] - ends[:-1]
        seen = np.flatnonzero(ys)
        counts.update(zip((seen + start).tolist(), ys[seen].tolist()))
        below = int(ends[-1])
    if below < n:
        # a draw past the end of a table with no mass beyond is rounding
        # dust and joins its last letter
        last = start + len(cdf) - 1
        counts[last] = counts.get(last, 0) + n - below
    return FrequencyTable(n, counts)


def _cdf_blocks(dist: Distribution, u_max: float):
    """Yield (first letter, prefix sums of p_k) over ``dist.prob_blocks``,
    up to the first block that exceeds u_max or the end of a level table, so
    the CDF runs less than one block past the letter it needs; at most
    _MAX_CDF_ENTRIES letters, refused up front when the certified tail mass
    beyond the cap already exceeds 1 - u_max.  A table that ends below
    u_max must hold all the mass; otherwise the draw needs letters it does
    not have.

    Each block is summed on from the running total, which gives the same
    floats as one cumsum over the whole prefix."""
    if dist.tail_mass_lower(_MAX_CDF_ENTRIES) > 1.0 - u_max:
        raise SamplerLimit(f"a draw of {u_max!r} needs more than {_MAX_CDF_ENTRIES} letters")
    reached = 0.0
    for start, p in dist.prob_blocks(_MAX_CDF_ENTRIES + 1):
        cdf = np.cumsum(np.concatenate(([reached], p)))[1:]
        yield start, cdf
        top = float(cdf[-1])
        if top > u_max:
            return
        if top <= reached and dist.prefix_length is None:
            # later blocks of a closed form hold smaller values, which round
            # away as well; a table ends by itself
            raise SamplerLimit(
                f"the CDF stops at {reached!r} in floating point, below the draw {u_max!r}"
            )
        reached = top
    if (dist.prefix_length or math.inf) > _MAX_CDF_ENTRIES:
        raise SamplerLimit(f"a draw of {u_max!r} needs more than {_MAX_CDF_ENTRIES} letters")
    if dist.support_size() is None:
        raise DepthExceeded("a draw landed beyond the constructed family's prefix")


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
    renormalized, a perturbation below 1e-15)."""
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
    """sum_k p_k (1-p_k)^v in the oracle's exact rational arithmetic."""
    probs = _rational_probs(dist)
    return sum((p * (1 - p) ** v for p in probs), Fraction(0))
