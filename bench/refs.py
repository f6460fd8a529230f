"""High-precision references for the thick-tail workload.

Computes t_n = n * sum_k p_k (1 - p_k)^n with mpmath, apart from alphatail,
for the three thick-tailed families on a grid of 101 sample sizes
n = round(10^(3 + i/20)), i = 0..100, and stores them in ``refs.json``.

* power (p_k = k^-lambda / zeta(lambda)): a direct head sum up to the index
  where n p_k drops to 1, then an Euler-Maclaurin tail whose integral is an
  exact quadrature in the variable p.
* logpower (p_k = c / (j ln(j)^lambda), j = k + k0 - 1): the normalizer is a
  head sum plus the closed integral ln(J)^(1-lambda)/(lambda-1) and
  Euler-Maclaurin corrections; t_n is a head sum plus a quadrature of the
  tail in u = ln j, with the same corrections.

Regenerate with ``python3 bench/refs.py`` (about ten minutes on one core).
"""

from __future__ import annotations

import json
import os
import sys
import time

import mpmath as mp

DPS = 30
EM_TERMS = 3
HEAD_MIN = 2000
GRID_SIZE = 101
REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")

# spec text -> (family, lambda, k0)
SPECS = {
    "power:lambda=2": ("power", 2, None),
    "power:lambda=1.5": ("power", 1.5, None),
    "logpower:lambda=2,k0=2": ("logpower", 2, 2),
}


def grid_n(i: int) -> int:
    """Sample size at grid index i: n = round(10^(3 + i/20))."""
    return int(round(10.0 ** (3 + i / 20)))


def _em_tail(f, K):
    """sum_{k>K} f(k) minus the integral of f over (K, inf)."""
    corr = -f(K) / 2
    for j in range(1, EM_TERMS + 1):
        corr -= mp.bernoulli(2 * j) / mp.factorial(2 * j) * mp.diff(f, K, 2 * j - 1)
    return corr


def _first_index_below(p, n):
    """Smallest K >= HEAD_MIN with n p(K) <= 1 (p decreasing)."""
    lo, hi = HEAD_MIN, HEAD_MIN
    while n * p(hi) > 1:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if n * p(mid) > 1:
            lo = mid
        else:
            hi = mid
    return hi


def power_t(lam, n: int) -> mp.mpf:
    lam = mp.mpf(lam)
    c = 1 / mp.zeta(lam)

    def p(x):
        return c * mp.mpf(x) ** (-lam)

    def f(x):
        px = p(x)
        return px * mp.exp(n * mp.log1p(-px))

    K = _first_index_below(p, n)
    head = mp.fsum(f(k) for k in range(1, K + 1))
    # x > K  <=>  p < p(K);  dx = (c^(1/lam)/lam) p^(-1/lam-1) dp
    integral = c ** (1 / lam) / lam * mp.quad(
        lambda q: q ** (-1 / lam) * mp.exp(n * mp.log1p(-q)), [0, p(K)])
    return n * (head + integral + _em_tail(f, K))


def logpower_norm(lam, k0: int) -> mp.mpf:
    lam = mp.mpf(lam)

    def g(j):
        j = mp.mpf(j)
        return 1 / (j * mp.log(j) ** lam)

    J = 10_000
    head = mp.fsum(g(j) for j in range(k0, J + 1))
    integral = mp.log(J) ** (1 - lam) / (lam - 1)
    return head + integral + _em_tail(g, J)


def logpower_t(lam, k0: int, n: int) -> mp.mpf:
    lam = mp.mpf(lam)
    c = 1 / logpower_norm(lam, k0)
    shift = k0 - 1

    def p(x):
        j = mp.mpf(x) + shift
        return c / (j * mp.log(j) ** lam)

    def f(x):
        px = p(x)
        return px * mp.exp(n * mp.log1p(-px))

    K = _first_index_below(p, n)
    head = mp.fsum(f(k) for k in range(1, K + 1))
    # in u = ln j the tail integrand is c u^-lam (1-p)^n; split off its
    # closed part c u^-lam and integrate the decaying remainder numerically
    u0 = mp.log(K + shift)

    def rest(u):
        q = c * mp.exp(-u) * u ** (-lam)
        return c * u ** (-lam) * mp.expm1(n * mp.log1p(-q))

    integral = c * u0 ** (1 - lam) / (lam - 1) + mp.quad(rest, [u0, u0 + 1, u0 + 10, mp.inf])
    return n * (head + integral + _em_tail(f, K))


def reference(spec: str, n: int) -> mp.mpf:
    family, lam, k0 = SPECS[spec]
    if family == "power":
        return power_t(lam, n)
    return logpower_t(lam, k0, n)


def load() -> dict:
    """{spec: {n: t_n}} as floats, read from refs.json."""
    with open(REFS_PATH) as fh:
        doc = json.load(fh)
    return {spec: {int(n): float(t) for n, t in rows.items()}
            for spec, rows in doc["t_n"].items()}


def main() -> int:
    mp.mp.dps = DPS
    out = {}
    for spec in SPECS:
        rows = {}
        for i in range(GRID_SIZE):
            n = grid_n(i)
            t0 = time.perf_counter()
            rows[str(n)] = mp.nstr(reference(spec, n), 25)
            print(f"{spec} n={n} t={rows[str(n)]} ({time.perf_counter() - t0:.1f}s)",
                  file=sys.stderr, flush=True)
        out[spec] = rows
    doc = {
        "command": "python3 bench/refs.py",
        "digits": DPS,
        "t_n": out,
    }
    with open(REFS_PATH, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
