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


# computed before the closed-form tail brackets moved into zoo
PINNED = {
    ("thick-tail", 1): "4cb8181e5b1b255997328df502d96b3c165be61843accc9702ed89b8d9f7759f",
    ("thick-tail", 101): "b6198228e29b71b74c35c7077a26d121feb96bf03e9b11c2fba8df96b578e763",
    ("thin-tail", 1): "cb009d6a1ef241aaab4d1034c748578ff2826a8db6b5101b52f42b8f56945e81",
    ("thin-tail", 101): "969008594837a05d4acb295364f669f214e2249fa15dd2cd0a74f970d3287801",
    ("diffusion", 1): "78b0d0a8595a1195688529c14dd25f5f9ec6ebb371afd42e91119ca98aa1ff34",
    ("diffusion", 101): "db7498ff23403557d09c27fc8b60355b6cf22ce9278b1b73c5a0e27432aabc8e",
    ("estimate", 1): "6a3febac949ca81dc2413d8242a9d299fcc008309a339ea43e5e0340cf59c04d",
    ("estimate", 101): "336e269089a5b74ad197996715489158a9b6fa4e0b24c105d7715641d9714593",
}


@pytest.mark.parametrize("workload, seed", list(PINNED), ids=[f"{w}-{s}" for w, s in PINNED])
def test_plan_outputs_are_pinned(workload, seed, monkeypatch):
    pytest.importorskip("mpmath")
    monkeypatch.syspath_prepend(str(BENCH))
    assert plan_digest(workload, seed) == PINNED[workload, seed]


def test_canonical_text():
    assert (canonical([1.5, np.float64(0.1), np.int64(3), True, None])
            == "[0x1.8000000000000p+0,0x1.999999999999ap-4,0x3,True,None]")
