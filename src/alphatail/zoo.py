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
ratio brackets for super-geometric decay, convex integral brackets for
power-type decay); summation stops once the bracket half-width falls below
1e-14.

A level table is stored once, as read-only arrays of log2 probabilities
(exact integer exponents for the diffusion sequence, so double-exponentially
small values never underflow before they are needed) and multiplicities;
``levels()`` is a list view of them.  All distributions are immutable after
construction; every prefix is materialized eagerly, so instances are safe
to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .errors import (
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

_CONSTRUCTED = {
    FamilyKind.CONGREGATED,
    FamilyKind.PAIR_AVERAGED,
    FamilyKind.DIFFUSION,
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
        _require(float(p.get("a", 0.0)) > 1.0, "geometric base requires a > 1")
    elif kind is FamilyKind.GAUSSIAN_TYPE:
        _require(float(p.get("lambda", 0.0)) > 0.0, "gaussian-type rate requires lambda > 0")
    elif kind is FamilyKind.TILTED_GEOMETRIC:
        _require(float(p.get("lambda", 0.0)) > 0.0, "tilted geometric requires lambda > 0")
        _require("r" in p and math.isfinite(float(p["r"])), "tilted geometric requires a finite exponent r")
    elif kind in (FamilyKind.POWER, FamilyKind.LOG_POWER):
        lam = float(p.get("lambda", 0.0))
        if lam <= 1.0:
            raise NormalizationDivergent(f"{kind.value} tail requires lambda > 1 (got {lam})")
        if kind is FamilyKind.LOG_POWER:
            _require(int(p.get("k0", 2)) >= 2, "log-power start index requires k0 >= 2")
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
# Closed-form family weights and tail brackets (unnormalized)
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
        js = ks + (p["k0"] - 1)
        return -(np.log(js) + p["lambda"] * np.log(np.log(js)))
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


def _tail_bracket(kind: FamilyKind, p: dict, K: int) -> tuple[float, float]:
    """Certified bracket [lo, hi] for the unnormalized tail sum over k > K.

    Valid whenever K >= _head_length(kind).  Geometric tails are exact,
    super-geometric tails use a ratio bound, power-type tails use the convex
    sandwich (trapezoid lower / midpoint upper), which shrinks like K^-2
    regardless of the exponent.
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
    if kind is FamilyKind.POWER:
        lam = p["lambda"]
        integral = lambda a: a ** (1.0 - lam) / (lam - 1.0)  # noqa: E731
        gk1 = (K + 1.0) ** (-lam)
        return integral(K + 1.0) + 0.5 * gk1, integral(K + 0.5)
    if kind is FamilyKind.LOG_POWER:
        lam, k0 = p["lambda"], p["k0"]
        integral = lambda a: math.log(a) ** (1.0 - lam) / (lam - 1.0)  # noqa: E731
        j = K + k0  # first shifted index beyond the tail cut
        wj = 1.0 / (j * math.log(j) ** lam)
        return integral(j) + 0.5 * wj, integral(j - 0.5)
    raise InvalidParams(f"no tail bracket for {kind}")


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
            for a in (self._level_log2, self._level_counts, self._live_p, self._live_counts):
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

    def log_prob_block(self, start: int, stop: int) -> np.ndarray:
        """Vectorized log_prob over k in [start, stop)."""
        if self._level_log2 is not None:
            self._check_depth(stop - 1)
            idx = np.searchsorted(self._cum_counts, np.arange(start, stop), side="left")
            return LN2 * self._level_log2[idx]
        ks = np.arange(start, stop, dtype=np.float64)
        return math.log(self.norm_constant) + _log_weight_block(self.kind, self.spec.params, ks)

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
        elif key in ("k0", "depth", "stages"):
            params[key] = int(val)
        elif key in ("a", "lambda", "r"):
            try:
                params[key] = float(val)
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
            items.append(f"{key}={int(v) if key in ('k0', 'depth', 'stages') else repr(float(v))}")
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
