"""References computed apart from alphatail, for the workload checks.

Nothing here imports alphatail.  Sequences are rebuilt from their defining
rules, exactly as Fractions where their values are rational, and summed in
mpmath at 50 digits; interval counts and the estimator are recomputed in
exact arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count

import mpmath as mp

DPS = 50
ULP = 2.0 ** -52
SUBNORMAL = 2.0 ** -1074
BAND_CEILING = 7.394          # upper band of t_n on thin tails
BAND_FLOOR = math.exp(-1.0) - 0.1


def bracket(label: str, iv, ref, n_log: float = 0.0) -> list[str]:
    """Check value <= ref <= value + trunc_error for one evaluation.

    The program's bracket covers truncation only.  Float rounding of its sums
    (terms_used summands, each exact to a few hundred ulps) and the certified
    halfwidth of its normalizer lie outside it, so both ends are widened by
    (terms_used + 10^4) ulps of the upper end, plus one subnormal per term
    for underflowed terms.  ``n_log`` is |ln n| for the large-n evaluator,
    whose term exponents carry an absolute error near 745 |ln n| ulps.
    """
    upper = iv.value + iv.trunc_error
    rel = (iv.terms_used + 10_000 + 1000.0 * n_log) * ULP
    slack = rel * upper + float(min(iv.n, 2 ** 53)) * (iv.terms_used + 1) * SUBNORMAL
    if iv.value - slack <= ref <= upper + slack:
        return []
    return [f"{label}: reference {float(ref)!r} outside [{iv.value!r}, {upper!r}] "
            f"(allowance {slack:.3g})"]


def t_levels(levels, n) -> mp.mpf:
    """n * sum count * p (1-p)^n over (p, count) levels in decreasing order;
    p is a Fraction or an mpf.

    Infinite level streams stop once n p count drops below 10^-(DPS+5) of
    the sum; every stream here decays at least geometrically past that point.
    """
    with mp.workdps(DPS):
        n = mp.mpf(n)
        acc = mp.mpf(0)
        cut = mp.mpf(10) ** (-(DPS + 5))
        for p, c in levels:
            if isinstance(p, Fraction):
                p = mp.mpf(p.numerator) / p.denominator
            acc += c * p * mp.exp(n * mp.log1p(-p))
            if n * p * c < cut * acc:
                break
        return n * acc


def _normalized(weight):
    """Levels (w(k)/Z, 1) of a positive, eventually geometric weight w."""
    with mp.workdps(DPS + 10):
        cut = mp.mpf(10) ** (-(DPS + 8))
        total = mp.mpf(0)
        for k in count(1):
            w = weight(k)
            total += w
            if k > 8 and w < cut * total:
                break
    for k in count(1):
        yield weight(k) / total, 1


def gaussian(lam):
    lam = mp.mpf(float(lam))
    return _normalized(lambda k: mp.exp(-lam * k * k))


def tilted(lam, r):
    lam, r = mp.mpf(float(lam)), mp.mpf(float(r))
    return _normalized(lambda k: mp.mpf(k) ** r * mp.exp(-lam * k))


def finite(weights):
    total = sum(weights)
    return [(Fraction(w, total), 1) for w in weights]


def dyadic(k: int) -> Fraction:
    return Fraction(1, 2 ** k)


def geometric(a):
    """p_k = (a-1) a^-k, with a the exact double a spec parameter parses to."""
    a = Fraction(float(a))
    return (((a - 1) * a ** (-k), 1) for k in count(1))


def congregated_geometric2():
    """Blocks of sizes 1, 2, 3, ... over q_k = 2^-k: block m >= 2 holds m
    copies of q at its last index m(m+1)/2; index 1 holds what is left."""
    rest = sum(m * dyadic(m * (m + 1) // 2) for m in range(2, 60))
    yield 1 - rest, 1
    for m in count(2):
        yield dyadic(m * (m + 1) // 2), m


def pairavg_geometric2():
    """Each pair (q_{2m-1}, q_{2m}) of q_k = 2^-k replaced by two copies of
    its average 3 * 2^-(2m+1)."""
    return ((3 * dyadic(2 * m + 1), 2) for m in count(1))


# ---------------------------------------------------------------------------
# Diffusion sequence
# ---------------------------------------------------------------------------

def diffusion_runs(stages: int) -> list[tuple[int, int, int, int]]:
    """Runs of the diffusion sequence, from its construction rule.

    Start from q_j = 2^-j with diffusion counts d_i = 2^i.  Stage i, which
    starts after q_j, copies the next 2 d_i dyadic terms, then splits the
    next term q_{j*} (j* = j + 2 d_i + 1) into d_i copies of 2^-(j*+i),
    placed after q_{j*+1} .. q_{j*+i}; the last of those equals the split
    value, so the stage ends in a run of d_i + 1 equal terms at exponent
    e = j* + i, and the next stage starts after q_e.

    Returns (stage, d_i, run exponent e, back exponent e - d_i - 2); the
    probes are n = 2^e and m = 2^(e - d_i - 2) - 1.
    """
    runs = []
    j = 0
    for i in range(1, stages + 1):
        d = 2 ** i
        e = j + 2 * d + 1 + i
        runs.append((i, d, e, e - d - 2))
        j = e
    return runs


def diffusion_levels(stages: int):
    """Levels (p, count) of the diffusion sequence in decreasing order."""
    levels: list[tuple[int, int]] = []
    j = 0
    for _, d, e, _ in diffusion_runs(stages):
        levels += [(k, 1) for k in range(j + 1, j + 2 * d + 1)]   # copied terms
        levels += [(k, 1) for k in range(j + 2 * d + 2, e)]      # q_{j*+1} .. q_{j*+i-1}
        levels.append((e, d + 1))
        j = e
    return [(mp.mpf(2) ** (-e), c) for e, c in levels]


# ---------------------------------------------------------------------------
# Interval counts (dominance)
# ---------------------------------------------------------------------------

def interval_counts(q, p_levels, depth: int) -> list[int]:
    """counts[k-1] = number of P's values in (q_{k+1}, q_k], k = 1..depth.

    ``q(k)`` gives Q's k-th largest value; ``p_levels`` yields P's values as
    (p, multiplicity) in decreasing order.  Values are compared exactly
    as Fractions.
    """
    qs = [q(k) for k in range(1, depth + 2)]
    counts = [0] * depth
    for p, c in p_levels:
        if p <= qs[-1]:
            break
        for k in range(depth):
            if qs[k + 1] < p <= qs[k]:
                counts[k] += c
                break
    return counts


# ---------------------------------------------------------------------------
# Estimator
# ---------------------------------------------------------------------------

def z1v_exact(counts, n: int, v: int) -> Fraction:
    """Z_{1,v} = sum_k y_k C(n - y_k, v) / (n C(n-1, v)) in integers."""
    num = sum(y * math.comb(n - y, v) for y in counts)
    return Fraction(num, n * math.comb(n - 1, v))


def hoeffding_halfwidth(n: int, v: int, samples: int, delta: float = 1e-9) -> float:
    """Deviation of the mean of Z_{1,v} over independent samples that is
    exceeded with probability at most ``delta``.

    Z_{1,v} is a U-statistic of order v+1 with a 0/1 kernel (is a random
    observation absent from v others?), so Hoeffding's bound applies with
    floor(n/(v+1)) independent blocks per sample.
    """
    blocks = samples * (n // (v + 1))
    return math.sqrt(math.log(2.0 / delta) / (2.0 * blocks))
