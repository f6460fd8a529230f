"""Catalog of probability distributions on countable alphabets.

A distribution here is a probability sequence ``p_1, p_2, ...`` stored in
one of two ways.  Closed forms (geometric, gaussian-type, tilted geometric,
power, log-power) are ordered ``p_1 >= p_2 >= ...`` beyond a small head.
Everything else is a level table of (log2 p, multiplicity) pairs in index
order plus a certified bound on the mass beyond it: the three constructed
sequences (congregated, pair-averaged, diffusion) are non-increasing tables
with positive mass beyond, and an explicit finite vector is a table of one
level per letter, in spec order (not necessarily non-increasing, ``-inf``
for a zero entry), with exactly zero mass beyond.  Every distribution
carries a certified normalization: the total mass is known to lie within
``1 +- mass_halfwidth`` with ``mass_halfwidth <= 1e-10``.

Normalization of closed forms sums the unnormalized weights directly and
closes the series with a certified tail bracket (exact for geometric tails,
ratio brackets for super-geometric decay, and for power and log-power tails,
where ``f = p`` has ``f'''' >= 0``, the one-sided second-order Euler-Maclaurin
``int + f/2 - f'/12`` less ``[0, |f'''|/384]`` from ``a = K+1``); summation
stops once the bracket half-width falls below 1e-14.

A closed form's series ``sum_k p_k w(p_k)`` at n >= 1 closes on
``Distribution.series_tail``, whose docstring is the one description of how
each family's tail closes.

A spec names a family and its parameters.  ``_PARAMS`` is the one table of
each family's parameters, in spec-text order, with their types and defaults.
``parse_spec`` and ``make_distribution`` both pass a spec through
``_canonical``, which fills in every default, casts and range-checks each
value and refuses a parameter the family does not take; so a text parses to
the spec of the distribution built from it, and ``format_spec`` writes that
spec back.

A level table is stored once, as read-only arrays of log2 probabilities
(exact integer exponents for the diffusion sequence, so double-exponentially
small values never underflow before they are needed) and multiplicities;
``levels()`` is a list view of them and ``descending_levels()`` orders them
by non-increasing p, without a copy for the constructed families.  All
distributions are immutable after construction; every prefix is
materialized eagerly, so instances are safe to share across threads.  The
one thing built later is ``kernel_arrays``: the n-independent arrays of the
series, built on first use per kernel and kept read-only, at most three
arrays of the level table's size, or of 64 values for a closed form; two
threads that race to build them build the same values.
"""

from __future__ import annotations

import functools
import math
import operator
import types
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

from .errors import (
    AlphatailError,
    DepthExceeded,
    InvalidBase,
    InvalidParams,
    NormalizationDivergent,
    SpecParseError,
    StagesExceeded,
)

LN2 = math.log(2.0)

# Certification targets.  The normalization bracket is closed two orders of
# magnitude below the mass certificate so family tests never sit on the edge.
MASS_TOL = 1e-10
NORM_CUTOFF = 1e-14

_SMALLEST_SUBNORMAL = 5e-324
_MAX_NORMALIZATION_TERMS = 1 << 27
# closed-form tail mass bounds are widened by this many of their ulps, past
# the rounding of the bracket and of the product with the normalizer (upper
# ends computed up to 2.3 ulps below their 40-digit tails, lower up to 1.7 above)
_TAIL_ROUNDING_ULPS = 4.0

# a log-power tail integral is an alternating series where t <= 4, a
# Gauss-Legendre rule in u = ln j where 4 < t <= 40 and a closed bound
# beyond; its remainder bound is summed over pieces on which j grows by at
# most 1.25 until t falls to 4
_SERIES_T = 4.0
_QUADRATURE_T = 40.0
_QUADRATURE_NODES = 48
_PIECE_RATIO = 1.25

MAX_DIFFUSION_STAGES = 16


class FamilyKind(str, Enum):
    FINITE = "finite"
    GEOMETRIC = "geometric"
    GAUSSIAN_TYPE = "gaussian"
    TILTED_GEOMETRIC = "tilted"
    POWER = "power"
    LOG_POWER = "logpower"
    CONGREGATED = "congregated"
    PAIR_AVERAGED = "pairavg"
    DIFFUSION = "diffusion"


_CLOSED_FORM = {
    FamilyKind.GEOMETRIC,
    FamilyKind.GAUSSIAN_TYPE,
    FamilyKind.TILTED_GEOMETRIC,
    FamilyKind.POWER,
    FamilyKind.LOG_POWER,
}
# the closed forms whose series tails close on an analytic sandwich
_SANDWICHED = {FamilyKind.POWER, FamilyKind.LOG_POWER}

@dataclass(frozen=True)
class FamilySpec:
    """A family identifier plus its named parameters, named as in the
    textual spec form; ``_PARAMS`` lists the parameters each family takes.
    A canonical spec is a value: read-only parameters, a finite vector a
    tuple, and a hash that ignores the order of the parameters."""

    kind: FamilyKind
    params: Mapping = field(default_factory=dict)

    def __hash__(self) -> int:
        # a list hashes as the tuple of its items; a base spec by this hash
        return hash((self.kind, frozenset(
            (key, tuple(v) if isinstance(v, list) else v) for key, v in self.params.items())))

    def __reduce__(self):
        # a read-only mapping does not pickle or deep-copy; its dict does
        return _read_only_spec, (self.kind, dict(self.params))

    def __str__(self) -> str:
        # an invalid spec still prints, so that a message can name it
        try:
            return format_spec(self)
        except InvalidParams:
            return repr(self)


def _read_only_spec(kind: FamilyKind, params: dict) -> FamilySpec:
    return FamilySpec(kind, types.MappingProxyType(params))


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvalidParams(msg)


# Each family's parameters in spec-text order, with their type and default
# (None for a required one): the one source of what a spec may hold.
_PARAMS = {
    FamilyKind.FINITE: {"p": (tuple, None)},
    FamilyKind.GEOMETRIC: {"a": (float, None)},
    FamilyKind.GAUSSIAN_TYPE: {"lambda": (float, None)},
    FamilyKind.TILTED_GEOMETRIC: {"lambda": (float, None), "r": (float, None)},
    FamilyKind.POWER: {"lambda": (float, None)},
    FamilyKind.LOG_POWER: {"lambda": (float, None), "k0": (int, 2)},
    FamilyKind.CONGREGATED: {"depth": (int, 48), "base": (FamilySpec, None)},
    FamilyKind.PAIR_AVERAGED: {"depth": (int, 512), "base": (FamilySpec, None)},
    FamilyKind.DIFFUSION: {"stages": (int, 8)},
}


def _cast(kind: FamilyKind, key: str, typ: type, value):
    """``value`` as the table's type: a float, an exact integer, a nonempty
    tuple of floats (from a list or tuple), or a canonical base spec."""
    if typ is FamilySpec and isinstance(value, FamilySpec):
        return _canonical(value)
    try:
        if typ is int:
            return operator.index(value)
        if typ is float:
            return float(value)
        if typ is tuple and isinstance(value, (list, tuple)) and len(value) > 0:
            return tuple(float(x) for x in value)
    except (TypeError, ValueError):
        pass
    raise InvalidParams(f"{kind.value} parameter {key} must be {typ.__name__}, got {value!r}")


def _canonical(spec: FamilySpec) -> FamilySpec:
    """The canonical spec of ``spec``: every parameter its family takes,
    defaults filled in, cast to the table's type and range-checked, in a
    read-only mapping.  A missing required parameter, one the family does
    not take or one out of range raises InvalidParams."""
    if spec.kind not in _PARAMS:
        raise InvalidParams(f"unknown family kind {spec.kind!r}")
    kind = FamilyKind(spec.kind)
    table = _PARAMS[kind]
    for key in spec.params:
        _require(key in table, f"{kind.value} takes no parameter {key!r}")
    p = {}
    for key, (typ, default) in table.items():
        value = spec.params.get(key, default)
        _require(value is not None, f"{kind.value} requires {key}")
        p[key] = _cast(kind, key, typ, value)
    if kind is FamilyKind.FINITE:
        _require(all(x >= 0.0 for x in p["p"]), "finite vector must be nonnegative")
        total = math.fsum(p["p"])
        _require(abs(total - 1.0) <= 1e-12, f"finite vector must sum to 1 within 1e-12 (got {total!r})")
    elif kind is FamilyKind.GEOMETRIC:
        _require(1.0 < p["a"] < math.inf, "geometric base requires a finite a > 1")
    elif kind in (FamilyKind.GAUSSIAN_TYPE, FamilyKind.TILTED_GEOMETRIC):
        _require(0.0 < p["lambda"] < math.inf, f"{kind.value} rate requires a finite lambda > 0")
        _require(kind is FamilyKind.GAUSSIAN_TYPE or math.isfinite(p["r"]),
                 "tilted geometric requires a finite exponent r")
    elif kind in (FamilyKind.POWER, FamilyKind.LOG_POWER):
        _require(p["lambda"] < math.inf, f"{kind.value} tail requires a finite lambda")
        if p["lambda"] <= 1.0:
            raise NormalizationDivergent(f"{kind.value} tail requires lambda > 1 (got {p['lambda']})")
        _require(kind is FamilyKind.POWER or p["k0"] >= 2, "log-power start index requires k0 >= 2")
    elif kind is FamilyKind.DIFFUSION:
        if p["stages"] > MAX_DIFFUSION_STAGES:
            raise StagesExceeded(f"diffusion stages capped at {MAX_DIFFUSION_STAGES} (got {p['stages']})")
        _require(p["stages"] >= 1, "diffusion requires stages >= 1")
    else:
        _require(p["depth"] >= 2, "constructed depth must be >= 2")
    return _read_only_spec(kind, p)


# ---------------------------------------------------------------------------
# Closed-form family weights and tail brackets
# ---------------------------------------------------------------------------

def _log_weight_block(kind: FamilyKind, p: dict, ks: np.ndarray) -> np.ndarray:
    """Natural log of the unnormalized weight g(k) on an index block."""
    if kind is FamilyKind.GEOMETRIC:
        return -math.log(p["a"]) * ks
    if kind is FamilyKind.GAUSSIAN_TYPE:
        return -p["lambda"] * ks * ks
    if kind is FamilyKind.TILTED_GEOMETRIC:
        return p["r"] * np.log(ks) - p["lambda"] * ks
    if kind is FamilyKind.POWER:
        return -p["lambda"] * np.log(ks)
    if kind is FamilyKind.LOG_POWER:
        # -(ln j + lambda ln ln j), with ln j taken once and worked in place
        lj = np.log(ks + (p["k0"] - 1))
        out = np.log(lj)
        out *= p["lambda"]
        out += lj
        return np.negative(out, out=out)
    raise InvalidParams(f"no closed form for {kind}")


def block_end(i: int) -> int:
    """The index K that ends block i = 0, 1, ... of the one block grid over
    p_k: 64, then 1,024, 3,072, ..., 130,048 (blocks of 960 and then 2^11,
    ..., 2^16 values), then 2^16 values each, a block that stays in cache."""
    if i == 0:
        return 64
    d = min(i - 1, 6)
    return (((2 << d) - 1) << 10) + ((i - 1 - d) << 16)


def _log_weight(kind: FamilyKind, p: dict, k: int) -> float:
    return float(_log_weight_block(kind, p, np.array([float(k)]))[0])


def _head_length(kind: FamilyKind, p: dict) -> int:
    """First index from which the closed form is non-increasing."""
    if kind is FamilyKind.TILTED_GEOMETRIC and p["r"] > 0.0:
        # g(k+1) >= g(k) iff r*log(1+1/k) >= lambda; the mode sits near r/lambda
        k = 1
        while p["r"] * math.log1p(1.0 / k) >= p["lambda"]:
            k += 1
        return k
    return 1


class Kernel(Enum):
    """The weight w(p) of the series sum_k p_k w(p_k)."""

    BINOMIAL = "(1-p)^n"    # Turing's zeta_n
    POISSON = "e^{-np}"     # its Poissonized twin

    def log_weight(self, p: np.ndarray) -> tuple[np.ndarray, Optional[tuple]]:
        """(L, big), from which the series evaluator takes w(p) = exp(n L)
        at any n, in one new array: L = log1p(-p) for (1-p)^n and -p for
        e^{-np}.  For (1-p)^n with some p > 0.99, big holds their mask and
        1 - p, where w is the direct power (1-p)^n instead; otherwise big is
        None."""
        L = np.negative(p)
        if self is Kernel.POISSON:
            return L, None
        np.log1p(L, out=L)
        if p.max() > 0.99:
            mask = p > 0.99
            return L, (mask, 1.0 - p[mask])
        return L, None

    def at(self, p: float, n: float) -> float:
        if self is Kernel.BINOMIAL:
            return math.exp(n * math.log1p(-p))
        return math.exp(-n * p)


class KernelArrays(NamedTuple):
    """The n-independent part of sum_k factor_k w(p_k) for one kernel, from
    which the series evaluator takes the terms at every n: ``Kernel.log_weight``'s
    (L, big), the factor of each term (p_k, or a level's multiplicity
    times p), and for a level table the certified mass beyond it (None for
    a closed form, whose tail closes on ``Distribution.series_tail``)."""

    L: np.ndarray
    big: Optional[tuple]
    factor: np.ndarray
    tail: Optional[float]


def _power_convex_from(c: float, lam: float, n: float, kernel: Kernel) -> float:
    """x_c beyond which f(x) = p w(p), p = c x^-lam, is convex.

    The sign of f'' is that of a quadratic A p^2 - B p + (lam+1) in p, so f
    is convex for p below its smaller root; the margin covers rounding.  For
    e^{-np} the root is u_-/n with u_- = 2(lam+1)/((3lam+1) + sqrt(5lam^2+2lam+1)).
    """
    if kernel is Kernel.BINOMIAL:
        A = lam * n * (n + 1.0) + (lam + 1.0) * (n + 1.0)
        B = 2.0 * lam * n + (lam + 1.0) * (n + 2.0)
    else:
        A = lam * n * n
        B = (3.0 * lam + 1.0) * n
    C = lam + 1.0
    p_minus = 2.0 * C / (B + math.sqrt(B * B - 4.0 * A * C))
    return (c / p_minus) ** (1.0 / lam) * (1.0 + 1e-9)


def power_tail_integral(c: float, lam: float, n: float, y: float, kernel: Kernel) -> float:
    """integral_y^inf p w(p) dx for p = c x^-lam, where p(y) < 1.

    Substituting q = p(x) gives (c^{1/lam}/lam) B_{p(y)}(a, n+1) for (1-p)^n
    and (c^{1/lam}/lam) n^{1/lam-1} gamma(a, n p(y)) for e^{-np}, with
    a = 1 - 1/lam.  Their series B_x(a,b) = x^a (1-x)^b / a * F(a+b, 1; a+1; x)
    and gamma(a,u) = u^a e^{-u} / a * M(1; a+1; u) have positive terms whose
    ratios fall towards x and 0, so the sums are accurate to a few ulps; the
    prefactor simplifies to c y^{1-lam}/(lam-1) times (1-x)^{n+1} or e^{-nx}.
    Past the convex range (u = n x > 1, em_gap's integral from y = 1) the
    series would need some u terms; there gamma(a, u) = Gamma(a) - Gamma(a, u),
    with Gamma(a, u) = R(a, u) u^a e^{-u} from ``_upper_gamma_ratio``.
    """
    x = c * y ** -lam
    a = 1.0 - 1.0 / lam
    binomial = kernel is Kernel.BINOMIAL
    if not binomial and n * x > 1.0:
        u = n * x
        lower = math.gamma(a) - _upper_gamma_ratio(a, u) * math.exp(a * math.log(u) - u)
        return c ** (1.0 / lam) / lam * n ** (-a) * lower
    term = total = 1.0
    j = 0.0
    while term > 1e-17 * total:
        term *= (a + n + 1.0 + j) / (a + 1.0 + j) * x if binomial else n * x / (a + 1.0 + j)
        total += term
        j += 1.0
    damp = math.exp((n + 1.0) * math.log1p(-x)) if binomial else math.exp(-n * x)
    return c * y ** (1.0 - lam) / (lam - 1.0) * damp * total


def _upper_gamma_ratio(a: float, x: float) -> float:
    """R(a, x) = Gamma(a, x) e^x x^-a for x > 0 from the continued fraction
    1/(x+1-a- 1(1-a)/(x+3-a- 2(2-a)/(x+5-a- ...))), which holds for every
    real a, negative ones included.

    Lentz's method finds the depth at which the convergents agree to an ulp;
    that convergent is then evaluated from the bottom up, which stays within
    a few ulps where Lentz's running product drifts by dozens at small x.
    For a <= 0 and x >= 1/4, and for 0 < a < 1 and x > 1, every partial
    denominator stays above half its b, so none vanishes.
    """
    b = x + 1.0 - a
    c, d = math.inf, 1.0 / b
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        if -2.2e-16 <= c * d - 1.0 <= 2.2e-16:
            break
    else:
        raise AlphatailError(f"continued fraction for Gamma({a}, {x}) did not converge")
    t = 0.0
    for k in range(i, 0, -1):
        t = -k * (k - a) / (x + 2.0 * k + 1.0 - a + t)
    return 1.0 / (x + 1.0 - a + t)


def _logpower_tail_integral(c: float, lam: float, k0: int, n: float, y: float,
                            kernel: Kernel) -> tuple[float, float]:
    """[lo, hi] on integral_y^inf p w(p) dx for p = c/(j ln^lam j), j = x+k0-1,
    where t = (n+1) p(y) for (1-p)^n, n p(y) for e^{-np}, is at most 4; past
    t = 4 ``_logpower_integral`` takes it from y4, where t falls to 4.

    Expanding w(p) = sum_m (-1)^m a_m p^m, with a_m = C(n,m) for (1-p)^n and
    n^m/m! for e^{-np}, and substituting u = ln j integrates every term: with
    u0 = ln(y+k0-1) and q = p(y) the integral is
    c u0^{1-lam} [1/(lam-1) + sum_{m>=1} (-1)^m a_m q^m R(1-(m+1)lam, m u0)].
    The kernel's partial sums alternate around it (Bonferroni inequalities,
    Taylor's theorem), so the integral lies between the last two partial
    sums; the terms shrink like (nq)^m/m!.  Up to t = 4 both ends lie within
    6e-16 relative of the 40-digit integral (lam = 1.5, 2, 3, both kernels,
    n = 1e4, 1e6, 1e8); beyond, the alternating terms grow before they
    shrink, and the cancellation drifts the ends to 1.2e-14 at t = 8 and
    1.7e-11 at t = 16.
    """
    j = y + k0 - 1.0
    u0 = math.log(j)
    q = c / (j * u0 ** lam)
    binomial = kernel is Kernel.BINOMIAL
    prev = total = 1.0 / (lam - 1.0)
    coef = 1.0
    for m in range(1, 1000):
        coef *= ((n + 1.0 - m) if binomial else n) * q / m
        term = coef * _upper_gamma_ratio(1.0 - (m + 1.0) * lam, m * u0)
        prev, total = total, total + (-term if m % 2 else term)
        if term <= 1e-17 * total:
            break
    else:
        raise AlphatailError(f"log-power tail series at n p(y) = {n * q} did not converge")
    scale = c * u0 ** (1.0 - lam)
    return scale * min(prev, total), scale * max(prev, total)


def _power_bracket(c: float, lam: float, n: float, kernel: Kernel, K: int) -> tuple[float, float]:
    """[lo, hi] on sum_{k>K} f(k), f = p w(p), p = c x^-lam, once f is convex
    on [K+1/2, inf): the trapezoid lower and midpoint upper sandwich of its
    integral, about |f'(K)|/8 wide.  Power's series tails keep this bracket
    while the benchmark's power:lambda=1.5 references are stale: on grid rows
    47-53 they sit 17,492 to 18,161 ulps of the upper end below tn's lower
    end, inside the check's allowance of terms_used + 10^4 ulps only because
    the head runs to 195,584 or 261,120 terms; a closure stopping at 7,168
    terms would be allowed 17,168 and fail it."""
    p1 = c * (K + 1.0) ** -lam
    f1 = p1 * kernel.at(p1, n)
    return (power_tail_integral(c, lam, n, K + 1.0, kernel) + 0.5 * f1,
            power_tail_integral(c, lam, n, K + 0.5, kernel))


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the N-point Gauss-Legendre rule on [-1, 1],
    computed on first use (about 2 ms), never while a distribution is built:
    eight Newton steps on P_N from x_i = cos(pi (i - 1/4)/(N + 1/2)), with
    P_N' = N (P_{N-1} - x P_N)/(1 - x^2), then w_i = 2 (1 - x_i^2)/(N
    P_{N-1}(x_i))^2.  P_{N-1} and P_N come from the three-term recurrence in
    long double, where it has one: near x = 1 the recurrence cancels, and in
    float64 it loses 1e-13 of P_{N-1}, and of w_i twice that."""
    N = _QUADRATURE_NODES
    x = np.cos(np.pi * (np.arange(1, N + 1, dtype=np.longdouble) - 0.25) / (N + 0.5))
    for i in range(9):
        p0, p1 = np.ones_like(x), x
        for k in range(2, N + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        if i < 8:
            x = x - p1 * (1 - x) * (1 + x) / (N * (p0 - x * p1))
    return x.astype(np.float64), (2 * (1 - x) * (1 + x) / (N * p0) ** 2).astype(np.float64)


def _logpower_u_at(c: float, lam: float, m: float, t: float, u: float) -> float:
    """u = ln j at which m p = t, p = c/(j ln^lam j), from a u at or below
    it: Newton's method on u + lam ln u = ln(c m/t), whose left side is
    concave and rising, so the steps rise to the root from below."""
    target = math.log(c * m / t)
    for _ in range(64):
        step = (target - u - lam * math.log(u)) / (1.0 + lam / u)
        if step <= 1e-15 * u:
            break
        u += step
    return u


def _logpower_quadrature(c: float, lam: float, n: float, kernel: Kernel,
                         u1: float, u2: float) -> tuple[float, float]:
    """(value, bound): the Gauss-Legendre value of int_{u1}^{u2} g(u) du,
    g = c u^-lam w(q), q = c e^-u u^-lam, which is int p w(p) dx over
    j = x+k0-1 from e^u1 to e^u2, and a bound on its error.

    With u = mid + h z, g is analytic in z inside the Bernstein ellipse
    E_rho (foci -1 and 1, semi-axes summing to rho), on which Re u >= alpha
    = u1 - h delta, delta = (rho + 1/rho)/2 - 1, and |Im u| <= beta =
    h sqrt(delta (delta + 2)).  There |u^-lam| <= alpha^-lam, |q| <= q* =
    c e^-alpha alpha^-lam and, as |arg u| <= beta/alpha, |arg q| <= phi =
    beta (1 + lam/alpha).  Where phi <= pi/3 and q* <= 1, Re q >= |q|/2, so
    |e^{-nq}| <= 1 and |1-q|^2 <= 1 - |q| + |q|^2 <= 1: |g| <= M = c
    alpha^-lam.  The N-point rule is then within h (64/15) M rho^(2-2N) /
    (rho^2 - 1) of the integral (Trefethen, Approximation Theory and
    Approximation Practice, Theorem 19.3, whose rule I_n has n+1 points).
    delta starts at the largest value with alpha >= u1/2 and phi <= pi/3
    there, and halves until both conditions hold at the computed alpha.
    """
    if u2 <= u1:
        return 0.0, 0.0
    nodes, weights = _gauss_legendre()
    h, mid = 0.5 * (u2 - u1), 0.5 * (u1 + u2)
    u = nodes * h + mid
    q = c / (np.exp(u) * u ** lam)
    w = np.exp(n * np.log1p(-q)) if kernel is Kernel.BINOMIAL else np.exp(-n * q)
    value = h * float(np.dot(weights, c * u ** -lam * w))
    g = math.pi / (3.0 * h * (1.0 + 2.0 * lam / u1))
    delta = min(0.5 * u1 / h, g * g / (1.0 + math.sqrt(1.0 + g * g)))
    for _ in range(64):
        alpha, beta = u1 - h * delta, h * math.sqrt(delta * (delta + 2.0))
        if beta * (1.0 + lam / alpha) <= math.pi / 3.0 and c * math.exp(-alpha) * alpha ** -lam <= 1.0:
            break
        delta *= 0.5
    else:
        return value, math.inf
    rho = 1.0 + delta + math.sqrt(delta * (delta + 2.0))
    bound = h * (64.0 / 15.0) * c * alpha ** -lam * rho ** (2.0 - 2.0 * _QUADRATURE_NODES) / (rho * rho - 1.0)
    return value, bound


def _logpower_integral(c: float, lam: float, k0: int, n: float, kernel: Kernel,
                       a: float, y4: float, m: float) -> tuple[float, float]:
    """[lo, hi] on int_a^inf p w(p) dx, p = c/(j ln^lam j), j = x+k0-1, at
    any t = m p(a), m = n+1 for (1-p)^n and n for e^{-np}, given y4 >= a
    where t falls to 4 (y4 = a where t(a) <= 4), in up to three parts: the
    alternating series of ``_logpower_tail_integral`` from y4;
    ``_logpower_quadrature`` over [max(a, yT), y4], yT where t = 40; and on
    [a, yT], where n p >= 39 and so p e^{-np} >= p w(p) falls as p rises,
    0 to (yT - a) p(yT) e^{-n p(yT)}.  The split points come from Newton's
    method, and each part is bounded at the split points as computed."""
    lo, hi = _logpower_tail_integral(c, lam, k0, n, y4, kernel)
    if y4 <= a:
        return lo, hi
    u1 = math.log(a + k0 - 1.0)
    yT = max(math.exp(_logpower_u_at(c, lam, m, _QUADRATURE_T, u1)) - k0 + 1.0, a)
    if yT > a:
        jT = yT + k0 - 1.0
        u1 = math.log(jT)
        pT = c / (jT * u1 ** lam)
        hi += (yT - a) * pT * math.exp(-n * pT)
    value, bound = _logpower_quadrature(c, lam, n, kernel, u1, math.log(y4 + k0 - 1.0))
    return lo + value - bound, hi + value + bound


def _faa_polynomials(lam: float, s):
    """R_1 = A, R_2, R_3, R_4 of p^(k) = (-1)^k p R_k/j^k at s = 1/ln j,
    for a float or an array of s."""
    A = 1.0 + lam * s
    R2 = A * (A + 1.0) + lam * s * s
    R3 = (A + 2.0) * R2 + lam * s * s * (2.0 * A + 1.0 + 2.0 * s)
    R4 = (A + 3.0) * R3 + lam * s * s * (3.0 * A * (A + 2.0) + 2.0
                                         + 3.0 * s * (3.0 * lam * s + 2.0 * s + 4.0))
    return A, R2, R3, R4


def _fourth_bound(lam: float, u, p, m: float, n: float, binomial: bool, top):
    """C, f'''' j^4/L bracketed in absolute values, with top(k, t) for
    |k - t|, from u = ln j and p at a piece's start: floats with top = max,
    or arrays with top = np.maximum."""
    A, R2, R3, R4 = _faa_polynomials(lam, 1.0 / u)
    t = m * p
    if binomial:
        r, n1, n2 = p / (1.0 - p), n - 1.0, n - 2.0
    else:
        r, n1, n2 = p, n, n
    e2 = n * r
    e3 = e2 * n1 * r
    return (R4 * top(1.0, t) + 6.0 * e3 * A * A * R2 * top(3.0, t) + e3 * n2 * r * A ** 4 * top(4.0, t)
            + e2 * (3.0 * R2 * R2 + 4.0 * A * R3) * top(2.0, t))


def _logpower_remainder(c: float, lam: float, n: float, kernel: Kernel, m: float,
                        j: float, j4: float, width: float) -> Optional[float]:
    """W >= int_a^inf |f''''|/720 in j = a+k0-1 <= j4, t(j4) <= 4, or None
    where 2W > width (``_logpower_bracket`` states f'''').

    Past any point s, t, every R_k and every e_k fall and |k-t| <= max(k, t)
    there, while L rises up to p = 1/n and falls beyond.  So on a piece
    [j_i, j_i+1] of j, |f''''| <= L* C/j^4 with C from ``_fourth_bound`` at
    j_i and L* the peak of L on the piece, and int x^-4 dx over the piece is
    (j_i^-3 - j_i+1^-3)/3.  The last piece, [j4, inf), has L* at min(p(j4),
    1/n) and is bounded first, alone where j = j4; the pieces of [j, j4],
    where j grows by a ratio of at most 1.25 and t falls by more, follow in
    one vectorised pass, and only if the last piece leaves 2W <= width.
    """
    binomial = kernel is Kernel.BINOMIAL
    u = math.log(j4)
    p = c / (j4 * u ** lam)
    r = p / (1.0 - p) if binomial else p
    C = _fourth_bound(lam, u, p, m, n, binomial, max)
    if n * p > 1.0:                                             # L* at p = 1/n
        p = 1.0 / n
        lead = p * kernel.at(p, n) / (1.0 - p if binomial else 1.0)
    else:
        lead = p * kernel.at(p, n) * r / p
    W = lead * C / (2160.0 * j4 ** 3)
    if j < j4 and 2.0 * W <= width:
        pieces = math.ceil(math.log(j4 / j) / math.log(_PIECE_RATIO))
        js = j * (j4 / j) ** (np.arange(pieces + 1) / pieces)
        js[-1] = j4
        us = np.log(js)
        ps = c / (js * us ** lam)
        C = _fourth_bound(lam, us[:-1], ps[:-1], m, n, binomial, np.maximum)
        q = np.minimum(np.maximum(ps[1:], 1.0 / n), ps[:-1])    # L's peak on the piece
        L = q * (np.exp(n * np.log1p(-q)) / (1.0 - q) if binomial else np.exp(-n * q))
        # an L that underflows is below 5e-324
        W += float(np.sum(np.maximum(L, 5e-324) * C * (js[:-1] ** -3.0 - js[1:] ** -3.0))) / 2160.0
    return None if 2.0 * W > width else W


def _logpower_head(c: float, lam: float, k0: int, n: float, kernel: Kernel,
                   K: int) -> tuple[float, float, float, float, float, float, float]:
    """(j, ln j, m, t, f, -f', -f''') of ``_logpower_bracket``'s f at a = K+1."""
    j = float(K + k0)
    u = math.log(j)
    A, R2, R3, _ = _faa_polynomials(lam, 1.0 / u)
    p = c / (j * u ** lam)
    binomial = kernel is Kernel.BINOMIAL
    if binomial:
        m, r, n1 = n + 1.0, p / (1.0 - p), n - 1.0
    else:
        m, r, n1 = n, p, n
    t = m * p
    e2 = n * r
    e3 = e2 * n1 * r
    f = p * kernel.at(p, n)
    lead = f * r / p                                            # L
    df = lead * (1.0 - t) * A / j                               # -f'
    d3f = lead * ((1.0 - t) * R3 + e3 * (3.0 - t) * A ** 3
                  - 3.0 * e2 * (2.0 - t) * A * R2) / j ** 3     # -f'''
    return j, u, m, t, f, df, d3f


def _logpower_bracket(c: float, lam: float, k0: int, n: float, kernel: Kernel,
                      K: int, width: float = math.inf) -> Optional[tuple[float, float]]:
    """[lo, hi] on sum_{k>K} f(k), f = g(p), g(p) = p w(p), p = c/(j ln^lam j),
    j = x+k0-1, at n >= 1 by second-order Euler-Maclaurin from a = K+1 at
    any K >= 0 (K = 0 leaves no head), or None where the remainder bound
    alone makes it wider than ``width``, before the integral is taken.

    sum_{k>=a} f(k) = I + f/2 - f'/12 + f'''/720 + R at a, I = int_a^inf f
    (``_logpower_integral``), with R = -int_a^inf B4({x}) f''''(x)/24 dx and
    B4(x) = x^2(1-x)^2 - 1/30.  With s = 1/ln j, p^(k) = (-1)^k p R_k/j^k,
    where R_1 = A = 1 + lam s and R_{k+1} = (A+k) R_k + s^2 dR_k/ds: every
    R_k is a polynomial in s with nonnegative coefficients, k! at s = 0.  For
    either kernel g^(m)(p) p^m = (-1)^(m+1) L e_m (m-t), where t = (n+1) p
    for (1-p)^n and n p for e^{-np}, L = p g'(p)/(1-t) = w(p) r and e_m =
    n(n-1)...(n-m+2) r^(m-1) with r = p/(1-p) for (1-p)^n, and r = p, e_m =
    (np)^(m-1) for e^{-np}, each nonnegative at integer n.  By Faa di Bruno
    -f' = L (1-t) A/j, -f''' = L [(1-t) R_3 + e_3 (3-t) A^3 - 3 e_2 (2-t) A
    R_2]/j^3 and f'''' = L [(1-t) R_4 + 6 e_3 (3-t) A^2 R_2 - e_4 (4-t) A^4
    - e_2 (2-t) (3 R_2^2 + 4 A R_3)]/j^4.

    The sign of f'''' is not known, and |B4| <= 1/30 gives |R| <= int_a^inf
    |f''''|/720 <= W (``_logpower_remainder``): the sum lies within W of I +
    f/2 - f'/12 + f'''/720.  Where t(a) > 4 both split at j4 with t(j4) = 4,
    from Newton's method.
    """
    j, u, m, t, f, df, d3f = _logpower_head(c, lam, k0, n, kernel, K)
    head = 0.5 * f + df / 12.0
    j4 = j if t <= _SERIES_T else max(math.exp(_logpower_u_at(c, lam, m, _SERIES_T, u)), j)
    W = _logpower_remainder(c, lam, n, kernel, m, j, j4, width)
    if W is None:
        return None
    lo, hi = _logpower_integral(c, lam, k0, n, kernel, K + 1.0, j4 - k0 + 1.0, m)
    mid = head - d3f / 720.0
    return lo + mid - W, hi + mid + W


def _tail_bracket(kind: FamilyKind, p: dict, K: int) -> tuple[float, float]:
    """Certified bracket [lo, hi] for the unnormalized tail sum over k > K.

    Valid whenever K >= _head_length(kind).  Geometric tails are exact,
    super-geometric tails use a ratio bound, and power and log-power tails,
    f = x^-lam and 1/(j ln^lam j), j = x+k0-1, one second-order
    Euler-Maclaurin bracket from a = K+1, relative width like K^-4: the sum
    is I + f/2 - f'/12 + f'''/720 + R at a, I = int_a^inf f, R = -int_a^inf
    B4({x}) f''''/24, B4(x) = x^2(1-x)^2 - 1/30.  As int_a^inf f'''' =
    -f'''(a), f'''' >= 0 (lam(lam+1)(lam+2)(lam+3) f/x^4 for power; see
    ``_logpower_bracket``) and 0 <= x^2(1-x)^2 <= 1/16, the sum is I + f/2 -
    f'/12 less a value in [0, |f'''|/384].
    """
    if kind is FamilyKind.GEOMETRIC:
        a = p["a"]
        t = a ** (-K) / (a - 1.0)
        return t, t
    if kind is FamilyKind.GAUSSIAN_TYPE:
        lam = p["lambda"]
        g1 = math.exp(-lam * (K + 1) ** 2)
        ratio = math.exp(-lam * (2 * K + 3))
        return g1, g1 / (1.0 - ratio)
    if kind is FamilyKind.TILTED_GEOMETRIC:
        lam, r = p["lambda"], p["r"]
        g1 = math.exp(r * math.log(K + 1) - lam * (K + 1))
        rho = math.exp(-lam) * (1.0 + 1.0 / (K + 1)) ** max(r, 0.0)
        if rho >= 1.0:
            return 0.0, math.inf
        return g1, g1 / (1.0 - rho)
    lam = p["lambda"]
    if kind is FamilyKind.POWER:
        a = K + 1.0
        f = a ** -lam
        integral, df, d3f = a * f / (lam - 1.0), lam * f / a, lam * (lam + 1.0) * (lam + 2.0) * f / a ** 3
    else:
        _, u, _, _, f, df, d3f = _logpower_head(1.0, lam, p["k0"], 0.0, Kernel.BINOMIAL, K)
        integral = u ** (1.0 - lam) / (lam - 1.0)
    head = 0.5 * f + df / 12.0
    return integral + head - d3f / 384.0, integral + head


def _normalize_closed_form(kind: FamilyKind, p: dict) -> tuple[float, float]:
    """Sum weights until the tail bracket closes; return (total, halfwidth)."""
    head = _head_length(kind, p)
    chunk_sums: list[float] = []
    K = 0
    chunk = 256
    while True:
        ks = np.arange(K + 1, K + chunk + 1, dtype=np.float64)
        chunk_sums.append(float(np.exp(_log_weight_block(kind, p, ks)).sum()))
        K += chunk
        if K >= head:
            lo, hi = _tail_bracket(kind, p, K)
            if hi - lo <= 2.0 * NORM_CUTOFF:
                partial = math.fsum(chunk_sums)
                total = partial + 0.5 * (lo + hi)
                halfwidth = 0.5 * (hi - lo) + 8e-16 * total
                return total, halfwidth
        chunk = min(chunk * 2, 1 << 20)
        if K > _MAX_NORMALIZATION_TERMS:
            raise NormalizationDivergent(
                f"normalization of {kind.value} did not certify within {K} terms"
            )


# ---------------------------------------------------------------------------
# Distribution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiffusionRun:
    """One equal-probability run of the diffusion sequence.

    ``n_probe = 2**run_exponent`` is the reciprocal of the run value and
    ``m_probe = 2**back_exponent - 1`` probes the strictly decreasing
    segment d+1 places before the run start.
    """

    stage: int
    d: int
    run_exponent: int
    k_start: int
    back_exponent: int

    @property
    def n_probe(self) -> int:
        return 1 << self.run_exponent

    @property
    def m_probe(self) -> int:
        return (1 << self.back_exponent) - 1


class Distribution:
    """Immutable normalized distribution over indices k = 1, 2, ...

    Stored as a closed form or as a level table (see the module docstring).
    Its values never change; ``kernel_arrays`` is built on first use and
    kept read-only, and neither a copy nor a pickle carries it.
    ``prob(k)`` may flush to zero for double-exponentially small values;
    ``log_prob(k)`` stays finite as long as the value is positive, and is
    the accessor the series evaluators use.
    """

    def __init__(
        self,
        spec: FamilySpec,
        norm_constant: float,
        k0_head: int,
        mass_halfwidth: float,
        *,
        levels: Optional[tuple[np.ndarray, np.ndarray]] = None,
        base: Optional["Distribution"] = None,
        runs: Optional[list[DiffusionRun]] = None,
        beyond_log2_mass: Optional[float] = None,
    ):
        self.spec = spec
        self.norm_constant = norm_constant
        self.k0_head = k0_head
        self.mass_halfwidth = mass_halfwidth
        self._base = base
        self.runs = runs or []
        self._beyond_log2_mass = beyond_log2_mass
        self._kernel_arrays: dict = {}    # Kernel -> KernelArrays, built on first use
        self._level_log2 = None
        if levels is not None:
            log2_p = np.asarray(levels[0], dtype=np.float64)
            counts = np.asarray(levels[1], dtype=np.int64)
            self._cum_counts = np.cumsum(counts)
            # one -inf level past the end: what an index beyond a table with
            # no mass beyond it reads (searchsorted lands there)
            self._level_log2 = np.append(log2_p, -np.inf)
            self._level_counts = counts.astype(np.float64)
            with np.errstate(under="ignore"):
                p = np.exp(LN2 * log2_p)
            self._live_p, self._live_counts = p[p > 0.0], self._level_counts[p > 0.0]
            self._descending = (self._level_log2[:-1], self._level_counts)
            if spec.kind is FamilyKind.FINITE:
                # a finite vector is in spec order; every constructed table is
                # non-increasing by construction
                order = np.argsort(-log2_p, kind="stable")
                self._descending = (log2_p[order], self._level_counts[order])
            for a in (self._level_log2, self._level_counts, self._live_p, self._live_counts,
                      *self._descending):
                a.flags.writeable = False
            # float suffix masses within the prefix (guarded upward later)
            masses = counts * np.exp2(log2_p)
            self._suffix_mass = np.concatenate(
                [np.cumsum(masses[::-1])[::-1], [0.0]]
            )
        if mass_halfwidth > MASS_TOL:
            raise InvalidParams(
                f"certified mass halfwidth {mass_halfwidth:g} exceeds {MASS_TOL:g}"
            )

    # -- structure ----------------------------------------------------------

    @property
    def kind(self) -> FamilyKind:
        return self.spec.kind

    @property
    def base(self) -> Optional["Distribution"]:
        return self._base

    def support_size(self) -> Optional[int]:
        """Number of letters with positive probability; None means countably
        infinite (a closed form, or a level table with mass beyond it)."""
        if self._level_log2 is None or self._beyond_log2_mass > -math.inf:
            return None
        return int(self._level_counts[self._level_log2[:-1] > -np.inf].sum())

    @property
    def prefix_length(self) -> Optional[int]:
        """Number of indices in the level table; None for closed forms."""
        if self._level_log2 is None:
            return None
        return int(self._cum_counts[-1])

    @property
    def is_strictly_decreasing(self) -> bool:
        k = self.kind
        if k in (FamilyKind.GEOMETRIC, FamilyKind.GAUSSIAN_TYPE, FamilyKind.POWER, FamilyKind.LOG_POWER):
            return True
        if k is FamilyKind.TILTED_GEOMETRIC:
            return self.spec.params["r"] <= 0.0
        return False

    def levels(self) -> list[tuple[float, int]]:
        """The level table's (log2 probability, multiplicity) pairs in index
        order: non-increasing for constructed families, spec order for a
        finite vector.  A list view of ``level_arrays()``."""
        l2, counts = self.level_arrays()
        return list(zip(l2.tolist(), counts.astype(np.int64).tolist()))

    def level_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (log2 probability, multiplicity) arrays of the levels,
        built once at construction; multiplicities are float64 for direct use
        as weights."""
        if self._level_log2 is None:
            raise InvalidParams(f"{self.kind.value} has no level representation")
        return self._level_log2[:-1], self._level_counts

    def descending_levels(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (log2 probability, multiplicity) arrays of the levels in
        non-increasing order of probability, ties in table order: the
        table's own arrays, no copy, for a constructed family, and a
        stable-sorted copy made once at construction for a finite vector,
        whose levels are in spec order."""
        self.level_arrays()  # raises for closed forms
        return self._descending

    def positive_levels(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (probability, multiplicity) arrays of the levels whose
        probability ``exp(LN2 * log2 p)`` is positive in float, in table
        order; every other level adds exactly 0 to a float-range series."""
        self.level_arrays()  # raises for closed forms
        return self._live_p, self._live_counts

    @property
    def beyond_prefix_log2_mass(self) -> float:
        """log2 of a certified upper bound on the mass beyond the level table;
        -inf when the table holds every letter."""
        if self._beyond_log2_mass is None:
            raise InvalidParams(f"{self.kind.value} has no prefix")
        return self._beyond_log2_mass

    # -- pointwise access ----------------------------------------------------

    def prob(self, k: int) -> float:
        if k < 1:
            raise InvalidParams("index k must be >= 1")
        lp = self.log_prob(k)
        return math.exp(lp) if lp > -math.inf else 0.0

    def _check_depth(self, k: int) -> None:
        """Past a level table, p_k is zero when no mass lies beyond it and
        unknown otherwise."""
        end = int(self._cum_counts[-1])
        if k > end and self._beyond_log2_mass > -math.inf:
            raise DepthExceeded(
                f"{self.kind.value} materialized to {end} indices; asked for {k}"
            )

    def log_prob(self, k: int) -> float:
        """Natural log of p_k (-inf when p_k = 0)."""
        if k < 1:
            raise InvalidParams("index k must be >= 1")
        if self._level_log2 is not None:
            self._check_depth(k)
            idx = int(np.searchsorted(self._cum_counts, k, side="left"))
            return LN2 * float(self._level_log2[idx])
        return math.log(self.norm_constant) + _log_weight(self.kind, self.spec.params, k)

    def prob_blocks(self, stop: int):
        """Yield (first index, p_k) for k = 1 .. stop-1 in the blocks of
        ``block_end``, the last one cut at stop, ending early at the end of a
        level table: the one index-order walk of the series sweep, the
        sampler and the dominance scan.  Each block is exp taken in place on
        ``log_prob_block``'s fresh array; values that underflow read 0."""
        if self.prefix_length is not None:
            stop = min(stop, self.prefix_length + 1)
        start, i = 1, 0
        while start < stop:
            end = min(block_end(i) + 1, stop)
            p = self.log_prob_block(start, end)
            with np.errstate(under="ignore"):
                np.exp(p, out=p)
            yield start, p
            start, i = end, i + 1

    def log_prob_block(self, start: int, stop: int) -> np.ndarray:
        """Vectorized log_prob over k in [start, stop)."""
        if self._level_log2 is not None:
            self._check_depth(stop - 1)
            idx = np.searchsorted(self._cum_counts, np.arange(start, stop), side="left")
            return LN2 * self._level_log2[idx]
        ks = np.arange(start, stop, dtype=np.float64)
        out = _log_weight_block(self.kind, self.spec.params, ks)
        out += math.log(self.norm_constant)
        return out

    def kernel_arrays(self, kernel: Kernel) -> KernelArrays:
        """The n-independent arrays of the series sum_k p_k w(p_k) for
        ``kernel``: for a level table, the levels of ``positive_levels``
        with factor multiplicity times p and tail
        ``tail_mass_bound(prefix_length)``; for a closed form, block 0 of
        ``prob_blocks`` (k = 1 .. ``block_end(0)``) with factor p.

        Built on the first call for each kernel and kept, read-only, for
        every later one: at most three table-sized arrays, or three of 64
        values, per kernel.  Two threads that both build them build the
        same values, so either one kept serves both.  A copy or pickle
        keeps none and builds its own on first use."""
        arrays = self._kernel_arrays.get(kernel)
        if arrays is None:
            with np.errstate(under="ignore", divide="ignore"):
                if self._level_log2 is not None:
                    p, counts = self.positive_levels()
                    factor, tail = counts * p, self.tail_mass_bound(self.prefix_length)
                else:
                    p = factor = np.exp(self.log_prob_block(1, block_end(0) + 1))
                    tail = None
                L, big = kernel.log_weight(p)
            for a in (L, factor, *(big or ())):
                a.flags.writeable = False
            arrays = self._kernel_arrays[kernel] = KernelArrays(L, big, factor, tail)
        return arrays

    def __getstate__(self) -> dict:
        # a copy or unpickling of a read-only array is writable: keep none
        return {**self.__dict__, "_kernel_arrays": {}}

    # -- tail certification ----------------------------------------------------

    def tail_mass_bound(self, K: int) -> float:
        """Certified U with sum_{k>K} p_k <= U, float rounding included."""
        if K < 1:
            raise InvalidParams("K must be >= 1")
        if self._level_log2 is not None:
            return self._table_tail(K)
        kind, p, head = self.kind, self.spec.params, self.k0_head
        if K >= head:
            tail = _tail_bracket(kind, p, K)[1]
        else:
            # walk the non-monotone head explicitly, then bound the monotone rest
            tail = math.fsum(math.exp(_log_weight(kind, p, k)) for k in range(K + 1, head + 1))
            tail += _tail_bracket(kind, p, head)[1]
        bound = self.norm_constant * tail
        # at least 4 subnormals even past float underflow: never zero for an
        # infinite tail
        return bound + _TAIL_ROUNDING_ULPS * math.ulp(bound)

    def tail_mass_lower(self, K: int) -> float:
        """Certified L <= sum_{k>K} p_k, float rounding included, for closed
        forms past their head (the normalization bracket's lower end); else 0."""
        if self.kind not in _CLOSED_FORM or K < self.k0_head:
            return 0.0
        bound = self.norm_constant * _tail_bracket(self.kind, self.spec.params, K)[0]
        return max(bound - _TAIL_ROUNDING_ULPS * math.ulp(bound), 0.0)

    def series_tail(self, n: float, kernel: Kernel) -> Callable[..., Optional[tuple[float, float]]]:
        """The certificate on the tail of a closed form's series at n >= 1:
        ``bracket(K, width=inf)`` is [lo, hi] on sum_{k>K} p_k w(p_k) for the
        kernel w(p) = (1-p)^n or e^{-np}, or None where no bracket is worth
        computing.  ``width`` is the widest bracket the caller can use; inf
        marks the cap, past which no head is summed.  An n below 1 raises
        InvalidParams (the mass, n = 0, is ``_tail_bracket``'s).

        * Power, p = c x^-lam: once f(x) = p w(p) is convex on [K+1/2, inf)
          (``_power_convex_from``) the sum lies between the trapezoid and
          midpoint sandwiches of its tail integral, about |f'(K)|/8 wide
          (``_power_bracket``); the integral is an incomplete beta function,
          for e^{-np} an incomplete gamma one (``power_tail_integral``).
          None before that.
        * Log-power: second-order Euler-Maclaurin from a = K+1 at every
          K >= 0, K = 0 included, where no head is left: the centre
          I + f/2 - f'/12 + f'''/720 within W, a bound on int_a^inf
          |f''''|/720 with no sign test (``_logpower_bracket``); the width
          falls like K^-4, and at K = 0 like n^-3 on the t_n scale up to
          powers of ln n.  I is an alternating series where t = (n+1) p
          (n p for e^{-np}) is at most 4, a Gauss-Legendre rule up to t = 40
          and a closed bound beyond (``_logpower_integral``).  None where 2W
          alone is above ``width``, before the integral is taken.
        * Every other closed form: (0, ``tail_mass_bound(K)``), an upper end
          for both kernels since w(p) <= 1, past the head; None before it.
          Where n times it meets eps, n p_{K+1} <= eps, so the omitted sum
          is within a relative eps of the omitted mass.

        Power and log-power give None at the first block end, 64, below the
        cap: a sandwich seldom closes there.  At the cap a tail with no open
        sandwich (a thin tail, or a power tail before it turns convex) takes
        the lower end w(p_{K+1}) times ``tail_mass_lower(K)``, at most the
        upper end, sound because p_k <= p_{K+1} past the head.  The bracket
        is built per call and reads no head sum.
        """
        _require(n >= 1.0, "a closed-form series tail needs n >= 1")
        kind, c, params = self.spec.kind, self.norm_constant, self.spec.params
        thick = kind in _SANDWICHED
        logpower = thick and kind is FamilyKind.LOG_POWER
        x_c = _power_convex_from(c, params["lambda"], n, kernel) if thick and not logpower else math.inf

        def bracket(K, width=math.inf):
            capped = width == math.inf
            if thick and (capped or K != block_end(0)):
                if logpower:
                    return _logpower_bracket(c, params["lambda"], params["k0"], n, kernel, K, width)
                if K + 0.5 >= x_c:
                    return _power_bracket(c, params["lambda"], n, kernel, K)
            if K < self.k0_head or thick and not capped:
                return None
            hi = self.tail_mass_bound(K)
            lo = self.tail_mass_lower(K) * kernel.at(math.exp(self.log_prob(K + 1)), n) if capped else 0.0
            return min(lo, hi), hi
        return bracket

    def _table_tail(self, K: int) -> float:
        n_prefix = int(self._cum_counts[-1])
        beyond = 2.0 ** self._beyond_log2_mass
        if K >= n_prefix:
            bound = beyond
        else:
            idx = int(np.searchsorted(self._cum_counts, K, side="left"))
            # suffix of the current level (ties split) plus full deeper levels
            within = float(self._cum_counts[idx] - K) * 2.0 ** float(self._level_log2[idx])
            rest = float(self._suffix_mass[idx + 1])
            bound = (within + rest + beyond) * (1.0 + 1e-12)
        if self._beyond_log2_mass == -math.inf:
            return bound
        # never certify zero for an infinite tail, even past float underflow
        return max(bound, _SMALLEST_SUBNORMAL)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def make_distribution(spec: FamilySpec) -> Distribution:
    """Build a normalized Distribution from a family spec; its ``spec`` is
    the canonical one (see :func:`parse_spec`).  A spec that is missing a
    parameter, holds one its family does not take or one out of range
    raises InvalidParams."""
    spec = _canonical(spec)
    kind, p = spec.kind, spec.params
    if kind is FamilyKind.FINITE:
        vec = np.asarray(p["p"], dtype=np.float64)
        total = math.fsum(vec.tolist())
        norm = 1.0 / total
        with np.errstate(divide="ignore"):
            log2_p = np.log2(vec * norm)
        return Distribution(spec, norm, len(vec), abs(total - 1.0),
                            levels=(log2_p, np.ones(len(vec), dtype=np.int64)),
                            beyond_log2_mass=-math.inf)
    if kind in _CLOSED_FORM:
        total, halfwidth = _normalize_closed_form(kind, p)
        return Distribution(spec, 1.0 / total, _head_length(kind, p), halfwidth / total)
    if kind is FamilyKind.DIFFUSION:
        return _diffusion(spec)
    base = make_distribution(p["base"])
    if base.support_size() is not None or not base.is_strictly_decreasing:
        raise InvalidBase("constructed families require an infinite, strictly decreasing base")
    build = _congregated if kind is FamilyKind.CONGREGATED else _pair_averaged
    return build(spec, base)


def _congregated(spec: FamilySpec, base: Distribution) -> Distribution:
    """Group indices into blocks of sizes 1, 2, 3, ...; block m (m >= 2) gets
    m copies of the base value at the block's last index, and index 1 absorbs
    the leftover mass.

    The result keeps ``p_k <= q_k`` for every k >= 2 while piling m equal
    values into a single interval of the base's ordered probabilities, which
    is exactly what defeats interval-count dominance.
    """
    depth = spec.params["depth"]
    group_log2 = [base.log_prob(m * (m + 1) // 2) / LN2 for m in range(2, depth + 1)]
    group_mass = math.fsum(
        m * math.exp(LN2 * lg) for m, lg in zip(range(2, depth + 1), group_log2)
    )
    # groups beyond depth carry at most the base tail past the last block
    prefix_end = depth * (depth + 1) // 2
    tail_hi = base.tail_mass_bound(prefix_end)
    p1 = 1.0 - group_mass - 0.5 * tail_hi
    if not 0.0 < p1 <= 1.0:
        raise InvalidBase("congregation left no admissible leading mass")
    halfwidth = 0.5 * tail_hi + base.mass_halfwidth + 4e-16
    beyond_log2 = math.log2(max(tail_hi, _SMALLEST_SUBNORMAL))
    return Distribution(spec, 1.0, 1, halfwidth,
                        levels=([math.log2(p1)] + group_log2, np.arange(1, depth + 1)),
                        base=base, beyond_log2_mass=beyond_log2)


def _pair_averaged(spec: FamilySpec, base: Distribution) -> Distribution:
    """Replace each consecutive pair (q_{2m-1}, q_{2m}) by two copies of its
    average.  Pair sums, and hence the total mass, are preserved.
    """
    depth = spec.params["depth"]
    log2_avg: list[float] = []
    for m in range(1, depth + 1):
        la = base.log_prob(2 * m - 1) / LN2
        lb = base.log_prob(2 * m) / LN2
        # avg = q_odd * (1 + q_even/q_odd)/2, stable at any depth
        log2_avg.append(la + math.log2(0.5 * (1.0 + 2.0 ** (lb - la))))
    tail_hi = base.tail_mass_bound(2 * depth)
    beyond_log2 = math.log2(max(tail_hi, _SMALLEST_SUBNORMAL))
    return Distribution(spec, 1.0, 1, base.mass_halfwidth + 4e-16,
                        levels=(log2_avg, np.full(depth, 2)), base=base,
                        beyond_log2_mass=beyond_log2)


def _diffusion(spec: FamilySpec) -> Distribution:
    """Build the transient-domain sequence from q_j = 2^-j with diffusion
    counts d_i = 2^i.

    Stage i copies the next 2*d_i dyadic terms verbatim, then splits the next
    term into d_i equal halvings (exponent shifted by i), first copying any
    dyadic terms that still exceed the diffused value.  Runs of exactly
    d_i + 1 equal terms result, separated by strictly decreasing segments of
    more than d_i + d_{i+1} terms; every reciprocal is an exact power of two.
    """
    exponents, counts = [], []
    runs: list[DiffusionRun] = []
    j_used = 0      # dyadic terms q_1..q_{j_used} placed so far
    assigned = 0    # indices filled so far
    for i in range(1, spec.params["stages"] + 1):
        d = 1 << i
        j_star = j_used + 2 * d + 1     # the term split into d halvings
        run_exp = j_star + i
        # 2d copied terms, then the forward terms q_{j*+1}..q_{j*+i}; the
        # last of them equals the diffused value and opens the run
        exponents += [np.arange(j_used + 1, j_star), np.arange(j_star + 1, run_exp + 1)]
        counts.append(np.append(np.ones(2 * d + i - 1, dtype=np.int64), d + 1))
        assigned += 2 * d + i + d
        runs.append(DiffusionRun(i, d, run_exp, assigned - d, run_exp - d - 2))
        j_used = run_exp
    # mass conservation: the prefix holds exactly the mass of q_1..q_{j_used}
    log2_p = -np.concatenate(exponents).astype(np.float64)
    return Distribution(spec, 1.0, 1, 0.0, levels=(log2_p, np.concatenate(counts)),
                        runs=runs, beyond_log2_mass=float(-j_used))


# ---------------------------------------------------------------------------
# Textual spec form:  kind:param=value,param=value
# ---------------------------------------------------------------------------

_KIND_TOKENS = {k.value: k for k in FamilyKind}


def parse_spec(text: str) -> FamilySpec:
    """Parse ``kind:param=value,...`` into the canonical spec, every
    parameter of the family present, so ``logpower:lambda=2`` equals
    ``logpower:lambda=2,k0=2``.  Finite vectors use semicolons, nested base
    specs sit in parentheses, e.g. ``congregated:base=(geometric:a=2)``.  A
    parameter the family does not take, or a value that does not parse as
    its type, raises SpecParseError; a value out of range raises
    InvalidParams, as in :func:`make_distribution`.
    """
    text = text.strip()
    head, _, rest = text.partition(":")
    kind = _KIND_TOKENS.get(head.strip().lower())
    if kind is None:
        raise SpecParseError(f"unknown family kind {head!r}")
    table = _PARAMS[kind]
    params: dict = {}
    for item in _split_top_level(rest):
        if not item:
            continue
        key, eq, val = item.partition("=")
        if not eq:
            raise SpecParseError(f"malformed parameter {item!r}")
        key = key.strip().lower()
        val = val.strip()
        if key not in table:
            raise SpecParseError(f"unknown parameter {key!r} for {kind.value}")
        typ = table[key][0]
        if typ is FamilySpec:
            if not (val.startswith("(") and val.endswith(")")):
                raise SpecParseError("base spec must be parenthesized")
            params[key] = parse_spec(val[1:-1])
            continue
        try:
            params[key] = tuple(float(x) for x in val.split(";") if x != "") if typ is tuple else typ(val)
        except ValueError as exc:
            raise SpecParseError(f"bad value {val!r} for {key}") from exc
    return _canonical(FamilySpec(kind, params))


def _split_top_level(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise SpecParseError("unbalanced parentheses")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise SpecParseError("unbalanced parentheses")
    parts.append("".join(cur))
    return [s.strip() for s in parts]


def format_spec(spec: FamilySpec) -> str:
    """The text of the canonical spec, every parameter in the table's
    order; parse_spec reads it back to an equal spec."""
    spec = _canonical(spec)
    items = []
    for key, v in spec.params.items():
        if isinstance(v, FamilySpec):
            text = f"({format_spec(v)})"
        elif isinstance(v, tuple):
            text = ";".join(map(repr, v))
        else:
            text = repr(v)
        items.append(f"{key}={text}")
    return f"{spec.kind.value}:{','.join(items)}"


_CATALOG = ("finite:p=0.5;0.3;0.2", "geometric:a=2", f"geometric:a={math.e!r}", "gaussian:lambda=1",
            "tilted:lambda=1,r=-1", "tilted:lambda=1,r=1", "power:lambda=2", "power:lambda=1.5",
            "logpower:lambda=2", "congregated:base=(geometric:a=2)", "pairavg:base=(geometric:a=2)",
            "diffusion:")


def catalog() -> list[FamilySpec]:
    """Representative members of every family, used by tests and the CLI,
    each with its family's defaults."""
    return [parse_spec(text) for text in _CATALOG]
