"""Every operation and verdict output of the four benchmark plans on seeds 1
and 101, pinned as digests: a change that must not move a number keeps
them bit for bit."""

import dataclasses
import enum
import hashlib
import importlib
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def canonical(x) -> str:
    """Text for an output that fixes every float bit for bit (in hex) and
    does not depend on how NumPy prints its scalars."""
    if isinstance(x, enum.Enum):
        return f"{type(x).__name__}.{x.name}"
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, bool):
        return repr(x)
    if isinstance(x, (int, np.integer)):
        return hex(x)  # diffusion probe points reach 2^(2^15)
    if dataclasses.is_dataclass(x):
        return f"{type(x).__name__}({','.join(canonical(getattr(x, f.name)) for f in dataclasses.fields(x))})"
    if isinstance(x, dict):
        return "{" + ",".join(f"{canonical(k)}:{canonical(v)}" for k, v in x.items()) + "}"
    if isinstance(x, (list, tuple, range)):
        return "[" + ",".join(canonical(v) for v in x) + "]"
    return repr(x)


def plan_digest(workload: str, seed: int) -> str:
    """sha256 of the canonical text of one pass of the plan's operations
    and then its verdicts, one output a line."""
    plan = importlib.import_module("workloads").WORKLOADS[workload](seed)
    outputs = [op() for op in plan.ops] + [verdict() for verdict in plan.verdicts]
    return hashlib.sha256("\n".join(map(canonical, outputs)).encode()).hexdigest()


# computed before the closed-form tail brackets moved into zoo; the two
# thick-tail digests again once log-power tails closed with the second-order
# bracket, which moved only the log-power outputs of those plans; thick-tail,
# thin-tail and estimate again once the first block of the series grid held
# 64 values: thin tails stop there (each value drops by at most its omitted
# tail, within its trunc_error), closed-form mass bounds widened by 4 ulps,
# and a few thick values moved by 1 ulp where the first 1,024 terms became
# two block sums; every terms_used on thick-tail, every sample and every
# dominance report is unchanged; the two estimate digests again once the
# sampler drew counts per block instead of uniforms, a new draw stream from
# the same seeds; the two thick-tail digests again once the log-power
# bracket opened where t = (n+1) p falls to 4, which moved the three
# log-power operations and the log-power verdict of each plan and no power
# line; the two thick-tail digests again once the log-power bracket opened
# at every K and closed at K = 0, which moved the log-power operation near
# n = 1e8 (it sums no term) and the log-power verdict of each plan (its
# points from n of about 4.3e4 close at K = 0, within eps = 1e-6 of their
# references) and no other line; the two thick-tail digests again once power
# was normalized with the second-order mass bracket, which moved the power
# normalizers by 3 (lam = 1.5) and 5 (lam = 2) ulps toward 1/zeta(lam): the
# power operations and verdicts moved in their last bits, no terms_used and
# no log-power line
PINNED = {
    ("thick-tail", 1): "8401c2aea019f4d6fa907228753ed8aa669664f1ee735192877166ae967db79b",
    ("thick-tail", 101): "14af7533ef289973ac09a740408e1c33a8de798b3baceae5f5c9d9a7597866f6",
    ("thin-tail", 1): "3656ad5cfc94a5a06b08995122c7ad37864e8d392f51d0e294cb1e784fc47029",
    ("thin-tail", 101): "e2eef79e6ca36015ff634fb1af9a1abbb723221c99334db0fe29f64ccc8f43f2",
    ("diffusion", 1): "78b0d0a8595a1195688529c14dd25f5f9ec6ebb371afd42e91119ca98aa1ff34",
    ("diffusion", 101): "db7498ff23403557d09c27fc8b60355b6cf22ce9278b1b73c5a0e27432aabc8e",
    ("estimate", 1): "5605562d49b4db09a72e8065490a3c3bc3dabee4cbb1aa1fc8d1f2b8f5be1e9e",
    ("estimate", 101): "56b8250a79b1abedd9247b78956980059a32752adf63e5c482d189486ac0cff5",
}


@pytest.mark.parametrize("workload, seed", list(PINNED), ids=[f"{w}-{s}" for w, s in PINNED])
def test_plan_outputs_are_pinned(workload, seed, monkeypatch):
    pytest.importorskip("mpmath")
    monkeypatch.syspath_prepend(str(BENCH))
    assert plan_digest(workload, seed) == PINNED[workload, seed]


def test_canonical_text():
    assert (canonical([1.5, np.float64(0.1), np.int64(3), True, None])
            == "[0x1.8000000000000p+0,0x1.999999999999ap-4,0x3,True,None]")
