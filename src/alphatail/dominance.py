"""Interval-count dominance between two distributions.

Q dominates P when every interval (q_{k+1}, q_k] of Q's non-increasingly
ordered probabilities contains a uniformly bounded number of P's
probabilities.  That is a statement about all k, so a finite scan can only
gather evidence; the verdict vocabulary keeps this explicit:

* ``DOMINATED_WITHIN``     every examined interval held at most max_count
                           values and all scans ran to completion,
* ``NOT_DOMINATED_AT_DEPTH`` some count reached the caller's growth
                           threshold within the examined depth,
* ``UNDETERMINED``         the probe limit or the end of P's level table
                           truncated the scan; never a false verdict.

P is walked in index order through ``Distribution.prob_blocks``, so the
scan stops inside the block where it completes.  Ties p_i = q_k land in
interval k (half-open on the left, exactly as the relation is defined);
equal consecutive q values make the interval empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import FiniteSupport, InvalidParams, positive_integer
from .zoo import Distribution

DEFAULT_DEPTH = 50
# the scan holds about 30 bytes per interval: 2^20 intervals take some 30 MB
MAX_DEPTH = 1 << 20
DEFAULT_PROBE_LIMIT = 10 ** 6
DEFAULT_GROWTH_THRESHOLD = 8


class DominanceVerdict(Enum):
    DOMINATED_WITHIN = "dominated_within"
    NOT_DOMINATED_AT_DEPTH = "not_dominated_at_depth"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class DominanceReport:
    depth: int
    counts: list
    max_count: int
    verdict: DominanceVerdict
    complete: bool
    growth_threshold: int

    def __post_init__(self):
        if len(self.counts) != self.depth:
            raise InvalidParams("one count per interval")
        if self.counts and self.max_count != max(self.counts):
            raise InvalidParams("max_count must equal max(counts)")


def _ordered_q(dist: Distribution, m: int) -> np.ndarray:
    """First m values of the non-increasingly ordered version of Q."""
    extra = max(dist.k0_head - 1, 0)
    with np.errstate(under="ignore"):
        vals = np.exp(dist.log_prob_block(1, m + extra + 1))
    vals = np.sort(vals)[::-1]
    return vals[:m]


def dominates(
    q_dist: Distribution,
    p_dist: Distribution,
    depth: int = DEFAULT_DEPTH,
    probe_limit: int = DEFAULT_PROBE_LIMIT,
    growth_threshold: int = DEFAULT_GROWTH_THRESHOLD,
) -> DominanceReport:
    """Count P's probabilities inside Q's first ``depth`` ordered intervals.

    P is scanned in index order, in the blocks of ``Distribution.prob_blocks``
    (the sampler's), up to the first index past its head where
    p_i <= q_{depth+1}.  If the probe limit or the end of P's level table
    comes first, the verdict is UNDETERMINED.  ``depth``, ``probe_limit``
    and ``growth_threshold`` must be positive integers (NumPy's included),
    the depth at most ``MAX_DEPTH`` and the threshold at least 2, since Q
    against itself puts one value in each interval; anything else raises
    InvalidParams before any work.
    """
    depth = positive_integer(depth, "depth")
    if depth > MAX_DEPTH:
        raise InvalidParams(f"depth must be at most {MAX_DEPTH}, got {depth}")
    probe_limit = positive_integer(probe_limit, "probe_limit")
    growth_threshold = positive_integer(growth_threshold, "growth_threshold")
    if growth_threshold < 2:
        raise InvalidParams(f"growth_threshold must be at least 2, got {growth_threshold!r}")
    if q_dist.support_size() is not None:
        raise FiniteSupport("the dominating distribution must have infinite support")
    if p_dist.support_size() is not None:
        raise FiniteSupport("dominance is defined within the all-positive class; "
                            "finite P is rejected")
    q = _ordered_q(q_dist, depth + 1)
    counts = np.zeros(depth, dtype=np.int64)
    q_floor = float(q[-1])      # q_{depth+1}
    q_top = float(q[0])         # q_1
    # ascending view for searchsorted; intervals are (q_{k+1}, q_k]
    q_asc = q[::-1].copy()
    complete = False
    # the same exp(log_prob_block) as the q side, so identical distributions
    # compare tie-for-tie
    for start, p_vals in p_dist.prob_blocks(probe_limit + 1):
        head = max(p_dist.k0_head + 1 - start, 0)   # indices k <= k0_head
        past = np.flatnonzero(p_vals[head:] <= q_floor)
        if past.size:
            complete = True
            p_vals = p_vals[:head + past[0]]
        inside = p_vals[(p_vals > q_floor) & (p_vals <= q_top)]
        # interval k = depth + 1 - (position in q_asc), counted at k - 1
        counts += np.bincount(depth - np.searchsorted(q_asc, inside, side="left"),
                              minlength=depth)
        if complete:
            break
    counts = counts.tolist()
    max_count = max(counts)
    if not complete:
        verdict = DominanceVerdict.UNDETERMINED
    elif max_count >= growth_threshold:
        verdict = DominanceVerdict.NOT_DOMINATED_AT_DEPTH
    else:
        verdict = DominanceVerdict.DOMINATED_WITHIN
    return DominanceReport(depth, counts, max_count, verdict, complete, growth_threshold)
