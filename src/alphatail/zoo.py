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
ratio brackets for super-geometric decay, and for power and log-power tails
the series sandwich below at n = 0, where the kernel is 1); summation stops
once the bracket half-width falls below 1e-14.

The closed-form tails of power and log-power families live here, in
``tail_sandwich``: it brackets ``sum_{k>K} p_k w(p_k)`` for either kernel
``w(p) = (1-p)^n`` or ``e^{-np}`` (``Kernel``) at any n >= 0, for the mass
bracket above and for the series evaluator in ``tail_index`` alike.  Once
``f(x) = p w(p)`` is convex on ``[K+1/2, inf)`` the sum lies between the
trapezoid and midpoint sandwiches of its tail integral, a bracket about
``|f'(K)|/8`` wide.  Log-power tails close with second-order
Euler-Maclaurin once ``f'''' >= 0`` there too: ``int + f/2 - f'/12`` less
``[0, |f'''|/384]`` at ``K+1``, with ``f'`` and ``f'''`` in closed form and
``f'''' >= 0`` certified by one point test; at n = 0, where ``f = p``,
it holds wherever ``p < 1``.  Power tails keep the first-order sandwich
until the benchmark's power references are corrected.  For power tails
``p_k = c k^-lam`` the integral is ``(c^{1/lam}/lam) B_{p(y)}(1-1/lam, n+1)``,
an incomplete beta function, for ``(1-p)^n`` and
``(c^{1/lam}/lam) n^{1/lam-1} gamma(1-1/lam, n p(y))``, an incomplete gamma
function, for ``e^{-np}``.  For log-power tails ``p_k = c/(j ln^lam j)``,
``j = k + k0 - 1``, expanding the kernel in powers of p integrates term by
term into upper incomplete gamma functions of negative order, evaluated by
their continued fraction; the partial sums alternate, so the last two
bracket the integral.  At n = 0 both integrals are taken in closed form.

A level table is stored once, as read-only arrays of log2 probabilities
(exact integer exponents for the diffusion sequence, so double-exponentially
small values never underflow before they are needed) and multiplicities;
``levels()`` is a list view of them and ``descending_levels()`` orders them
by non-increasing p, without a copy for the constructed families.  All
distributions are immutable after construction; every prefix is
materialized eagerly, so instances are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Optional

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
_FIRST_PROB_BLOCK = 64      # prob_blocks doubles from 64 values ...
_MAX_PROB_BLOCK = 1 << 16   # ... up to this

DEFAULT_LOGPOWER_K0 = 2
DEFAULT_CONGREGATED_DEPTH = 48
DEFAULT_PAIR_DEPTH = 512
DEFAULT_DIFFUSION_STAGES = 8
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

@dataclass(frozen=True)
class FamilySpec:
    """A family identifier plus its named parameters.

    Parameter names follow the textual spec form (see :func:`parse_spec`):
    ``a`` for the geometric base, ``lambda`` for rate/exponent parameters,
    ``r`` for the tilt exponent, ``k0`` for the log-power start index,
    ``p`` for finite vectors, ``base``/``depth``/``stages`` for the
    constructed families.
    """

    kind: FamilyKind
    params: dict = field(default_factory=dict)

    def __str__(self) -> str:
        return format_spec(self)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvalidParams(msg)


def validate_spec(spec: FamilySpec) -> None:
    """Check parameter constraints; raises InvalidParams on violation."""
    kind, p = spec.kind, spec.params
    if kind is FamilyKind.FINITE:
        vec = p.get("p")
        _require(isinstance(vec, (list, tuple)) and len(vec) > 0, "finite family needs a nonempty vector p")
        _require(all(x >= 0.0 for x in vec), "finite vector must be nonnegative")
        total = math.fsum(vec)
        _require(abs(total - 1.0) <= 1e-12, f"finite vector must sum to 1 within 1e-12 (got {total!r})")
    elif kind is FamilyKind.GEOMETRIC:
        _require(1.0 < float(p.get("a", 0.0)) < math.inf, "geometric base requires a finite a > 1")
    elif kind is FamilyKind.GAUSSIAN_TYPE:
        _require(0.0 < float(p.get("lambda", 0.0)) < math.inf,
                 "gaussian-type rate requires a finite lambda > 0")
    elif kind is FamilyKind.TILTED_GEOMETRIC:
        _require(0.0 < float(p.get("lambda", 0.0)) < math.inf,
                 "tilted geometric requires a finite lambda > 0")
        _require("r" in p and math.isfinite(float(p["r"])), "tilted geometric requires a finite exponent r")
    elif kind in (FamilyKind.POWER, FamilyKind.LOG_POWER):
        lam = float(p.get("lambda", 0.0))
        _require(lam < math.inf, f"{kind.value} tail requires a finite lambda")
        if lam <= 1.0:
            raise NormalizationDivergent(f"{kind.value} tail requires lambda > 1 (got {lam})")
        if kind is FamilyKind.LOG_POWER:
            _require(int(p.get("k0", DEFAULT_LOGPOWER_K0)) >= 2,
                     "log-power start index requires k0 >= 2")
    elif kind in (FamilyKind.CONGREGATED, FamilyKind.PAIR_AVERAGED):
        base = p.get("base")
        _require(isinstance(base, FamilySpec), f"{kind.value} requires a base FamilySpec")
        validate_spec(base)
        depth = int(p.get("depth", 0) or _default_depth(kind))
        _require(depth >= 2, "constructed depth must be >= 2")
    elif kind is FamilyKind.DIFFUSION:
        stages = int(p.get("stages", DEFAULT_DIFFUSION_STAGES))
        if stages > MAX_DIFFUSION_STAGES:
            raise StagesExceeded(f"diffusion stages capped at {MAX_DIFFUSION_STAGES} (got {stages})")
        _require(stages >= 1, "diffusion requires stages >= 1")
    else:  # pragma: no cover - enum is closed
        raise InvalidParams(f"unknown family kind {kind!r}")


def _default_depth(kind: FamilyKind) -> int:
    return DEFAULT_CONGREGATED_DEPTH if kind is FamilyKind.CONGREGATED else DEFAULT_PAIR_DEPTH


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
    with Gamma(a, u) = R(a, u) u^a e^{-u} from ``_upper_gamma_ratio``.  At
    n = 0 the prefactor is the integral itself, taken directly: the series
    would sum 1/(1-x) and multiply by 1-x, which moves it by an ulp.
    """
    if n == 0.0:
        return c * y ** (1.0 - lam) / (lam - 1.0)
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
        if abs(c * d - 1.0) <= 2.2e-16:
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
    where n p(y) < 1.

    Expanding w(p) = sum_m (-1)^m a_m p^m, with a_m = C(n,m) for (1-p)^n and
    n^m/m! for e^{-np}, and substituting u = ln j integrates every term: with
    u0 = ln(y+k0-1) and q = p(y) the integral is
    c u0^{1-lam} [1/(lam-1) + sum_{m>=1} (-1)^m a_m q^m R(1-(m+1)lam, m u0)].
    The kernel's partial sums alternate around it (Bonferroni inequalities,
    Taylor's theorem), so the integral lies between the last two partial
    sums; the terms shrink like (nq)^m/m!.  At n = 0 only the first term is
    left, taken as c u0^{1-lam}/(lam-1) at both ends.
    """
    j = y + k0 - 1.0
    u0 = math.log(j)
    if n == 0.0:
        return (c * u0 ** (1.0 - lam) / (lam - 1.0),) * 2
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


def _logpower_convex_at(c: float, lam: float, k0: int, n: float, x: float, kernel: Kernel) -> bool:
    """Whether f = p w(p), p = c/(j ln^lam j), j = x+k0-1, is convex on [x, inf).

    With u = ln j and A = 1 + lam/u, p' = -pA/j and p'' = p(A^2+A+lam/u^2)/j^2,
    so f'' >= 0 wherever (1-(n+1)p)(1-p)(1+1/A) >= 2np for (1-p)^n and
    (1-np)(1+1/A) >= 2np for e^{-np}.  The left sides grow and the right
    sides fall with x, so one point covers the tail; the margin covers
    rounding.
    """
    j = x + k0 - 1.0
    u = math.log(j)
    p = c / (j * u ** lam)
    gain = 1.0 + u / (u + lam)  # 1 + 1/A
    if kernel is Kernel.BINOMIAL:
        lhs = (1.0 - (n + 1.0) * p) * (1.0 - p) * gain
    else:
        lhs = (1.0 - n * p) * gain
    return lhs >= 2.0 * n * p * (1.0 + 1e-9)


class _LogPowerPoint(NamedTuple):
    """f = g(p), g(p) = p w(p), p = c/(j ln^lam j), j = x+k0-1, at one x:
    what f's derivatives and the test of f'''' >= 0 share.

    With s = 1/ln j, p^(k) = (-1)^k p R_k/j^k, where R_1 = A = 1 + lam s and
    R_{k+1} = (A+k) R_k + s^2 dR_k/ds, so R_2 = A(A+1) + lam s^2 and
    R_3 = (A+2) R_2 + lam s^2 (2A+1+2s).  Each R_k is a polynomial in s with
    nonnegative coefficients, k! at s = 0: p is completely monotone.  For
    either kernel g^(m)(p) p^(m-1) = (-1)^(m+1) g'(p) e_m (m-t)/(1-t), with
    t = (n+1)p, r = p/(1-p) and e_m = n(n-1)...(n-m+2) r^(m-1) for (1-p)^n,
    and t = np, r = p and e_m = (np)^(m-1) for e^{-np}; every e_m is
    nonnegative at integer n.
    """

    j: float
    p: float
    s: float
    A: float
    R2: float
    R3: float
    t: float
    r: float
    e2: float
    e3: float
    e4: float


def _logpower_point(c: float, lam: float, k0: int, n: float, x: float, kernel: Kernel) -> _LogPowerPoint:
    """The ``_LogPowerPoint`` at x."""
    j = x + k0 - 1.0
    u = math.log(j)
    s = 1.0 / u
    A = 1.0 + lam * s
    R2 = A * (A + 1.0) + lam * s * s
    p = c / (j * u ** lam)
    if kernel is Kernel.BINOMIAL:
        t, r, n1, n2 = (n + 1.0) * p, p / (1.0 - p), n - 1.0, n - 2.0
    else:
        t, r, n1, n2 = n * p, p, n, n
    e2 = n * r
    e3 = e2 * n1 * r
    return _LogPowerPoint(j, p, s, A, R2, (A + 2.0) * R2 + lam * s * s * (2.0 * A + 1.0 + 2.0 * s),
                          t, r, e2, e3, e3 * n2 * r)


def _logpower_fourth_from(c: float, lam: float, k0: int, n: float, x: float, kernel: Kernel) -> bool:
    """Whether f = p w(p), p = c/(j ln^lam j), j = x+k0-1, has f'''' >= 0 on
    [x, inf), which the second-order bracket needs.

    By Faa di Bruno and ``_LogPowerPoint``, f'''' j^4 (1-t)/(p g'(p) R_4) =
    (1-t) + 6 e3 (3-t) a - e4 (4-t) b - e2 (2-t) g, with a = A^2 R_2/R_4,
    b = A^4/R_4 and g = (3 R_2^2 + 4 A R_3)/R_4.  Along the tail p and s
    fall, and:
    - R_3 >= (A+2) R_2 and R_4 >= (A+3) R_3 bound b and g by
      B = A^3/((A+1)(A+2)(A+3)) and G = 3 R_2/((A+2)(A+3)) + 4A/(A+3),
      which grow with s, so B and G at x bound the whole tail's;
    - d ln a/d ln p <= d = lam s^2 (4+2s)/A^2, which grows with s, so
      a >= a(x) (p/p(x))^d.
    So f'''' >= 0 wherever Q(p) = (1-t) + 6 e3 (3-t) a(x) (p/p(x))^d
    - e4 (4-t) B - e2 (2-t) G >= 0.  r dQ/dp is at most
    -e2 + 18 a(x) e3 (1+r)(2+d+2r) - G e2 (2-2t-tr), and dQ/dp's bound
    grows with p; where that is <= 0 at x, Q rises along the tail, so
    Q(p(x)) >= 0 covers it.  t < 1 keeps the signs of g^(m); the margins
    cover rounding.
    """
    q = _logpower_point(c, lam, k0, n, x, kernel)
    A, s, t, r, e2, e3 = q.A, q.s, q.t, q.r, q.e2, q.e3
    if t >= 1.0:
        return False
    R4 = (A + 3.0) * q.R3 + lam * s * s * (3.0 * A * (A + 2.0) + 2.0
                                           + 3.0 * s * (3.0 * lam * s + 2.0 * s + 4.0))
    a = A * A * q.R2 / R4
    d = lam * s * s * (4.0 + 2.0 * s) / (A * A)
    B = A ** 3 / ((A + 1.0) * (A + 2.0) * (A + 3.0))
    G = 3.0 * q.R2 / ((A + 2.0) * (A + 3.0)) + 4.0 * A / (A + 3.0)
    margin = 1.0 + 1e-9
    rises = 18.0 * a * e3 * (1.0 + r) * (2.0 + d + 2.0 * r) * margin <= e2 * (1.0 + G * (2.0 - t * (2.0 + r)))
    Q_plus, Q_minus = (1.0 - t) + 6.0 * e3 * (3.0 - t) * a, q.e4 * (4.0 - t) * B + e2 * (2.0 - t) * G
    return rises and Q_plus >= Q_minus * margin


def _power_bracket(c: float, lam: float, n: float, kernel: Kernel, K: int) -> tuple[float, float]:
    """[lo, hi] on sum_{k>K} f(k), f = p w(p), p = c x^-lam, once f is convex
    on [K+1/2, inf): the trapezoid lower and midpoint upper sandwich of its
    integral, about |f'(K)|/8 wide.  Power tails keep this first-order
    bracket alone until the benchmark's power references are corrected;
    then they take the second-order one where f'''' >= 0, as
    ``_logpower_bracket`` does."""
    p1 = c * (K + 1.0) ** -lam
    f1 = p1 * kernel.at(p1, n)
    return (power_tail_integral(c, lam, n, K + 1.0, kernel) + 0.5 * f1,
            power_tail_integral(c, lam, n, K + 0.5, kernel))


def _logpower_bracket(c: float, lam: float, k0: int, n: float, kernel: Kernel,
                      K: int) -> tuple[float, float]:
    """[lo, hi] on sum_{k>K} f(k), f = p w(p), p = c/(j ln^lam j), once f is
    convex on [K+1/2, inf): second-order Euler-Maclaurin from a = K+1 where
    f'''' >= 0 there too, and the first-order sandwich before, which closes
    a loose eps sooner than the onset of f'''' >= 0.

    sum_{k>=a} f(k) = int_a^inf f + f(a)/2 - f'(a)/12 + f'''(a)/720 + R with
    R = -int_a^inf B4({x}) f''''(x)/24 dx and B4(x) = x^2(1-x)^2 - 1/30; the
    constant cancels the f''' term, and 0 <= x^2(1-x)^2 <= 1/16 puts the sum
    in [I + f/2 - f'/12 - |f'''|/384, I + f/2 - f'/12], I the integral's
    bracket: about |f'''|/384 wide, against |f'|/8 for the first-order one.
    f' and f''' come from ``_LogPowerPoint`` and the chain rule.
    """
    q = _logpower_point(c, lam, k0, n, K + 1.0, kernel)
    f = q.p * kernel.at(q.p, n)
    lo, hi = _logpower_tail_integral(c, lam, k0, n, K + 1.0, kernel)
    if not _logpower_fourth_from(c, lam, k0, n, K + 0.5, kernel):
        return lo + 0.5 * f, _logpower_tail_integral(c, lam, k0, n, K + 0.5, kernel)[1]
    A, t = q.A, q.t
    lead = f * q.r / q.p                                        # p g'(p)/(1-t)
    df = lead * (1.0 - t) * A / q.j                             # -f'
    d3f = lead * ((1.0 - t) * q.R3 + q.e3 * (3.0 - t) * A ** 3
                  - 3.0 * q.e2 * (2.0 - t) * A * q.R2) / q.j ** 3   # -f'''
    head = 0.5 * f + df / 12.0
    return lo + head - d3f / 384.0, hi + head


class Sandwich(NamedTuple):
    """A power-type tail of sum_k p_k w(p_k) in closed form, at one n and
    kernel: ``bracket(K)`` is [lo, hi] on sum_{k>K} p_k w(p_k), sound once
    p w(p) is convex on [K+1/2, inf), which ``convex(K + 1/2)`` tests."""

    bracket: Callable[[int], tuple[float, float]]
    convex: Callable[[float], bool]


def tail_sandwich(kind: FamilyKind, c: float, params: dict, n: float,
                  kernel: Kernel) -> Optional[Sandwich]:
    """The closed-form sandwich of the power or log-power tail p_k = c g(k)
    at n, None for any other family.  At n = 0 the kernel is 1 and the
    bracket is on the tail mass."""
    if kind is FamilyKind.POWER:
        lam = params["lambda"]
        x_c = _power_convex_from(c, lam, n, kernel)
        return Sandwich(lambda K: _power_bracket(c, lam, n, kernel, K), lambda x: x >= x_c)
    if kind is FamilyKind.LOG_POWER:
        lam, k0 = params["lambda"], params["k0"]
        return Sandwich(lambda K: _logpower_bracket(c, lam, k0, n, kernel, K),
                        lambda x: _logpower_convex_at(c, lam, k0, n, x, kernel))
    return None


def _tail_bracket(kind: FamilyKind, p: dict, K: int) -> tuple[float, float]:
    """Certified bracket [lo, hi] for the unnormalized tail sum over k > K.

    Valid whenever K >= _head_length(kind).  Geometric tails are exact,
    super-geometric tails use a ratio bound, power and log-power tails are
    ``tail_sandwich`` at c = 1 and n = 0: the trapezoid/midpoint sandwich
    for power, whose relative width shrinks like K^-2 regardless of the
    exponent, and second-order Euler-Maclaurin for log-power, like K^-4.
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
    sandwich = tail_sandwich(kind, 1.0, p, 0.0, Kernel.BINOMIAL)
    if sandwich is None:
        raise InvalidParams(f"no tail bracket for {kind}")
    return sandwich.bracket(K)


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
        """Yield (first index, p_k) for k = 1 .. stop-1 in blocks that double
        from 64 values up to 2^16, ending early at the end of a level table;
        the one index-order walk of the sampler and the dominance scan.
        Values that underflow read 0."""
        if self.prefix_length is not None:
            stop = min(stop, self.prefix_length + 1)
        start, block = 1, _FIRST_PROB_BLOCK
        while start < stop:
            end = min(start + block, stop)
            with np.errstate(under="ignore"):
                p = np.exp(self.log_prob_block(start, end))
            yield start, p
            start, block = end, min(2 * block, _MAX_PROB_BLOCK)

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

    # -- tail certification ----------------------------------------------------

    def tail_mass_bound(self, K: int) -> float:
        """Certified U with sum_{k>K} p_k <= U."""
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
        # never certify zero for an infinite tail, even past float underflow
        return max(bound, _SMALLEST_SUBNORMAL)

    def tail_mass_lower(self, K: int) -> float:
        """Certified L with L <= sum_{k>K} p_k for closed forms past their
        head (the lower side of the normalization bracket); 0 elsewhere."""
        if self.kind not in _CLOSED_FORM or K < self.k0_head:
            return 0.0
        return self.norm_constant * _tail_bracket(self.kind, self.spec.params, K)[0]

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
    """Build a normalized Distribution from a family spec."""
    validate_spec(spec)
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
        params = {k: (int(v) if k == "k0" else float(v)) for k, v in p.items()}
        if kind is FamilyKind.LOG_POWER:
            params.setdefault("k0", DEFAULT_LOGPOWER_K0)
        total, halfwidth = _normalize_closed_form(kind, params)
        norm = 1.0 / total
        clean = FamilySpec(kind, params)
        return Distribution(clean, norm, _head_length(kind, params), halfwidth / total)
    if kind is FamilyKind.CONGREGATED:
        base = make_distribution(p["base"])
        return construct_congregated(base, int(p.get("depth", DEFAULT_CONGREGATED_DEPTH)))
    if kind is FamilyKind.PAIR_AVERAGED:
        base = make_distribution(p["base"])
        return construct_pair_averaged(base, int(p.get("depth", DEFAULT_PAIR_DEPTH)))
    if kind is FamilyKind.DIFFUSION:
        return construct_diffusion(int(p.get("stages", DEFAULT_DIFFUSION_STAGES)))
    raise InvalidParams(f"unknown family kind {kind!r}")  # pragma: no cover


def _require_base(base: Distribution) -> None:
    if base.support_size() is not None or not base.is_strictly_decreasing:
        raise InvalidBase(
            "constructed families require an infinite, strictly decreasing base"
        )


def construct_congregated(base: Distribution, depth: int) -> Distribution:
    """Group indices into blocks of sizes 1, 2, 3, ...; block m (m >= 2) gets
    m copies of the base value at the block's last index, and index 1 absorbs
    the leftover mass.

    The result keeps ``p_k <= q_k`` for every k >= 2 while piling m equal
    values into a single interval of the base's ordered probabilities, which
    is exactly what defeats interval-count dominance.
    """
    _require_base(base)
    if depth < 2:
        raise InvalidParams("congregated depth must be >= 2")
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
    spec = FamilySpec(FamilyKind.CONGREGATED, {"base": base.spec, "depth": depth})
    beyond_log2 = math.log2(max(tail_hi, _SMALLEST_SUBNORMAL))
    return Distribution(spec, 1.0, 1, halfwidth,
                        levels=([math.log2(p1)] + group_log2, np.arange(1, depth + 1)),
                        base=base, beyond_log2_mass=beyond_log2)


def construct_pair_averaged(base: Distribution, depth: int) -> Distribution:
    """Replace each consecutive pair (q_{2m-1}, q_{2m}) by two copies of its
    average.  Pair sums, and hence the total mass, are preserved.
    """
    _require_base(base)
    if depth < 2:
        raise InvalidParams("pair-averaged depth must be >= 2")
    log2_avg: list[float] = []
    for m in range(1, depth + 1):
        la = base.log_prob(2 * m - 1) / LN2
        lb = base.log_prob(2 * m) / LN2
        # avg = q_odd * (1 + q_even/q_odd)/2, stable at any depth
        log2_avg.append(la + math.log2(0.5 * (1.0 + 2.0 ** (lb - la))))
    spec = FamilySpec(FamilyKind.PAIR_AVERAGED, {"base": base.spec, "depth": depth})
    tail_hi = base.tail_mass_bound(2 * depth)
    beyond_log2 = math.log2(max(tail_hi, _SMALLEST_SUBNORMAL))
    return Distribution(spec, 1.0, 1, base.mass_halfwidth + 4e-16,
                        levels=(log2_avg, np.full(depth, 2)), base=base,
                        beyond_log2_mass=beyond_log2)


def construct_diffusion(stages: int) -> Distribution:
    """Build the transient-domain sequence from q_j = 2^-j with diffusion
    counts d_i = 2^i.

    Stage i copies the next 2*d_i dyadic terms verbatim, then splits the next
    term into d_i equal halvings (exponent shifted by i), first copying any
    dyadic terms that still exceed the diffused value.  Runs of exactly
    d_i + 1 equal terms result, separated by strictly decreasing segments of
    more than d_i + d_{i+1} terms; every reciprocal is an exact power of two.
    """
    if stages < 1:
        raise InvalidParams("diffusion requires stages >= 1")
    if stages > MAX_DIFFUSION_STAGES:
        raise StagesExceeded(f"diffusion stages capped at {MAX_DIFFUSION_STAGES}")
    exponents, counts = [], []
    runs: list[DiffusionRun] = []
    j_used = 0      # dyadic terms q_1..q_{j_used} placed so far
    assigned = 0    # indices filled so far
    for i in range(1, stages + 1):
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
    spec = FamilySpec(FamilyKind.DIFFUSION, {"stages": stages})
    # mass conservation: the prefix holds exactly the mass of q_1..q_{j_used}
    log2_p = -np.concatenate(exponents).astype(np.float64)
    return Distribution(spec, 1.0, 1, 0.0, levels=(log2_p, np.concatenate(counts)),
                        runs=runs, beyond_log2_mass=float(-j_used))


# ---------------------------------------------------------------------------
# Textual spec form:  kind:param=value,param=value
# ---------------------------------------------------------------------------

_KIND_TOKENS = {k.value: k for k in FamilyKind}
_INT_PARAMS = ("k0", "depth", "stages")


def parse_spec(text: str) -> FamilySpec:
    """Parse ``kind:param=value,...``; finite vectors use semicolons, nested
    base specs sit in parentheses, e.g. ``congregated:base=(geometric:a=2)``.
    """
    text = text.strip()
    head, _, rest = text.partition(":")
    kind = _KIND_TOKENS.get(head.strip().lower())
    if kind is None:
        raise SpecParseError(f"unknown family kind {head!r}")
    params: dict = {}
    for item in _split_top_level(rest):
        if not item:
            continue
        key, eq, val = item.partition("=")
        if not eq:
            raise SpecParseError(f"malformed parameter {item!r}")
        key = key.strip().lower()
        val = val.strip()
        if key == "p":
            try:
                params["p"] = [float(x) for x in val.split(";") if x != ""]
            except ValueError as exc:
                raise SpecParseError(f"bad probability list {val!r}") from exc
        elif key == "base":
            if not (val.startswith("(") and val.endswith(")")):
                raise SpecParseError("base spec must be parenthesized")
            params["base"] = parse_spec(val[1:-1])
        elif key in _INT_PARAMS + ("a", "lambda", "r"):
            try:
                params[key] = int(val) if key in _INT_PARAMS else float(val)
            except ValueError as exc:
                raise SpecParseError(f"bad numeric value {val!r} for {key}") from exc
        else:
            raise SpecParseError(f"unknown parameter {key!r} for {kind.value}")
    validate_spec(FamilySpec(kind, params))
    return FamilySpec(kind, params)


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
    """Inverse of parse_spec; output re-parses to an equal spec."""
    kind, p = spec.kind, spec.params
    if kind is FamilyKind.FINITE:
        return f"finite:p={';'.join(repr(float(x)) for x in p['p'])}"
    items = []
    for key in ("a", "lambda", "r", "k0", "depth", "stages"):
        if key in p:
            v = p[key]
            items.append(f"{key}={int(v) if key in _INT_PARAMS else repr(float(v))}")
    if "base" in p:
        items.append(f"base=({format_spec(p['base'])})")
    return f"{kind.value}:{','.join(items)}"


def catalog() -> list[FamilySpec]:
    """Representative members of every family, used by tests and the CLI."""
    geo2 = FamilySpec(FamilyKind.GEOMETRIC, {"a": 2.0})
    return [
        FamilySpec(FamilyKind.FINITE, {"p": [0.5, 0.3, 0.2]}),
        geo2,
        FamilySpec(FamilyKind.GEOMETRIC, {"a": math.e}),
        FamilySpec(FamilyKind.GAUSSIAN_TYPE, {"lambda": 1.0}),
        FamilySpec(FamilyKind.TILTED_GEOMETRIC, {"r": -1.0, "lambda": 1.0}),
        FamilySpec(FamilyKind.TILTED_GEOMETRIC, {"r": 1.0, "lambda": 1.0}),
        FamilySpec(FamilyKind.POWER, {"lambda": 2.0}),
        FamilySpec(FamilyKind.POWER, {"lambda": 1.5}),
        FamilySpec(FamilyKind.LOG_POWER, {"lambda": 2.0, "k0": 2}),
        FamilySpec(FamilyKind.CONGREGATED, {"base": geo2, "depth": DEFAULT_CONGREGATED_DEPTH}),
        FamilySpec(FamilyKind.PAIR_AVERAGED, {"base": geo2, "depth": DEFAULT_PAIR_DEPTH}),
        FamilySpec(FamilyKind.DIFFUSION, {"stages": DEFAULT_DIFFUSION_STAGES}),
    ]
