"""The sampling-probability schedule and constant-time discrete sampling.

The schedule starts at a probability low enough that a structure of size
``delta`` sees at most ``eps`` expected samples, and raises the probability
by a (1+eps) factor every ``b`` steps until it reaches 1 at step 0.  Steps
are indexed k, k-1, ..., 0 (decreasing).  Natural logarithms throughout.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidConfig, InvalidEpsilon
from .util import guarded_ceil

EPS_MAX = 0.5
# The most steps a schedule may have.  Every solver, the planner and the
# alias table hold a few float64 arrays over the k + 1 steps, 256 MiB each at
# this cap, so a longer schedule is refused before any of them is sized.  k
# grows like ln(delta/eps)/eps^2: at eps 1e-3 every delta up to 9e17 stays
# under the cap (k at most 3.4e7), at eps 5e-4 only delta up to 88, and at
# eps 1e-4 no delta does.
MAX_STEPS = 2 ** 25


def _validate_eps(eps: float) -> None:
    if not (0.0 < eps <= EPS_MAX):
        raise InvalidEpsilon(f"eps must lie in (0, {EPS_MAX}], got {eps}")


def compute_b(eps: float) -> int:
    """Number of steps the sampling probability stays on one plateau:
    ceil(ln(2 + 2*eps) / eps)."""
    _validate_eps(eps)
    return guarded_ceil(math.log(2.0 + 2.0 * eps) / eps)


@dataclass(frozen=True)
class Schedule:
    """eps, the plateau width b, and the largest step index k."""

    eps: float
    b: int
    k: int


def make_schedule(eps: float, k: int) -> Schedule:
    if k < 0:
        raise InvalidConfig(f"step count must be nonnegative, got {k}")
    if k > MAX_STEPS:
        raise InvalidConfig(f"a schedule of more than MAX_STEPS = {MAX_STEPS} steps "
                            f"is refused; eps {eps} is too small for this input")
    return Schedule(eps=eps, b=compute_b(eps), k=int(k))


def probability(i: int, sched: Schedule) -> float:
    """Sampling probability at step i: (1+eps)^(-ceil(i/b)).  p(0) == 1."""
    if not (0 <= i <= sched.k):
        raise IndexError(f"step {i} outside [0, {sched.k}]")
    level = -((-i) // sched.b)
    return (1.0 + sched.eps) ** (-level)


def probabilities(sched: Schedule) -> np.ndarray:
    """Vector of p(i) for i = 0..k."""
    i = np.arange(sched.k + 1)
    levels = (i + sched.b - 1) // sched.b
    return (1.0 + sched.eps) ** (-levels.astype(float))


def schedule_length_outer(delta: int, eps: float) -> int:
    """k = b * ceil(log_{1+eps}(delta/eps)); guarantees p(k) * delta <= eps."""
    _validate_eps(eps)
    if delta < 1:
        raise InvalidConfig("delta must be >= 1; empty instances short-circuit earlier")
    b = compute_b(eps)
    try:
        ratio = delta / eps
    except OverflowError:
        ratio = math.inf
    # a float delta near the top of the range divides to inf without raising
    if math.isinf(ratio):
        raise InvalidConfig(f"size {delta} is beyond float range")
    return b * guarded_ceil(math.log(ratio) / math.log1p(eps))


def schedule_for_max_size(delta: int, eps: float) -> Schedule:
    return make_schedule(eps, schedule_length_outer(delta, eps))


# the same arithmetic with the element frequency in place of the set size
schedule_for_frequency = schedule_for_max_size


def bucket_distribution(sched: Schedule) -> np.ndarray:
    """Probability that an item's first sampled step is i, over i = 0..k:
    p(i) * prod_{j>i} (1 - p(j)).  Sums to 1 because p(0) == 1."""
    p = probabilities(sched)
    # cumprod multiplies the factors 1 - p(j) one at a time from j = k down
    return p * np.concatenate((np.cumprod(1.0 - p[:0:-1])[::-1], [1.0]))


@dataclass(frozen=True, eq=False)
class AliasTable:
    """Walker alias table: O(n) build, O(1) per sample."""

    thresholds: np.ndarray
    aliases: np.ndarray

    def __len__(self) -> int:
        return len(self.thresholds)


def build_alias(weights) -> AliasTable:
    """Build an alias table for the normalized weight vector.

    Ties in the small/large partition are consumed lowest index first, which
    makes the table (and therefore seeded sampling) deterministic.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise InvalidConfig("weights must be a nonempty 1-d sequence")
    if np.any(w < 0):
        raise InvalidConfig("weights must be nonnegative")
    total = float(w.sum())
    if total <= 0.0:
        raise InvalidConfig("weights must not all be zero")
    n = w.size
    scaled = w * (n / total)
    thresholds = np.ones(n, dtype=float)
    aliases = np.arange(n, dtype=np.int64)
    small = deque(i for i in range(n) if scaled[i] < 1.0)
    large = deque(i for i in range(n) if scaled[i] >= 1.0)
    while small and large:
        s = small.popleft()
        g = large.popleft()
        thresholds[s] = scaled[s]
        aliases[s] = g
        scaled[g] -= 1.0 - scaled[s]
        if scaled[g] < 1.0:
            small.append(g)
        else:
            large.append(g)
    # leftovers are numerically 1
    for q in (small, large):
        while q:
            thresholds[q.popleft()] = 1.0
    return AliasTable(thresholds=thresholds, aliases=aliases)


def sample_alias(table: AliasTable, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` indices from the table's distribution."""
    n = len(table)
    slots = rng.integers(0, n, size=size)
    u = rng.random(size)
    return np.where(u < table.thresholds[slots], slots, table.aliases[slots])


@lru_cache(maxsize=256)
def _alias_cached(eps: float, k: int) -> AliasTable:
    return build_alias(bucket_distribution(make_schedule(eps, k)))


def alias_for_schedule(sched: Schedule) -> AliasTable:
    """Alias table over the schedule's first-sample distribution (cached)."""
    return _alias_cached(sched.eps, sched.k)


# Draw counts from which `step_groups` groups by one numpy sort rather than a
# Python loop over the draws, and so hands out a `StepPartition`.  Below it
# the sort's fixed numpy calls cost more than the loop (24 against 9
# microseconds at 20 draws); at 512 draws the sort takes 53-98 against 62-149
# microseconds, and at 2e5 half the loop's time (timed at k = 100, 288 and
# 820).
_GROUP_SORT_MIN = 512


@dataclass(frozen=True, eq=False)
class StepPartition:
    """A sorted step draw: group g drew step ``steps[g]`` and holds the ids
    ``order[bounds[g]:bounds[g + 1]]``, in the order they were given, and
    the steps fall from group to group.  Iterating gives ``(step, group)``
    pairs, each group a slice of the one int64 array ``order``."""

    order: np.ndarray
    steps: list[int]
    bounds: list[int]

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        order, bounds = self.order, self.bounds
        return ((step, order[a:b]) for step, a, b in zip(self.steps, bounds, bounds[1:]))


def step_groups(sched: Schedule, rng: np.random.Generator, count: int,
                ids: list[int] | None = None
                ) -> list[tuple[int, list[int]]] | StepPartition:
    """Draw the first sampled step of each of ``count`` items from the
    schedule's alias table and group the items' ids, ``ids`` or 0..count-1,
    by it: ``(step, ids in the given order)`` for each drawn step, highest
    step first.

    Fewer than ``_GROUP_SORT_MIN`` draws are grouped in a dict, into that
    list of pairs; more are ordered by one stable argsort on k - step (a
    ``uint16`` key, which numpy radix-sorts, when k < 65536) into a
    `StepPartition`, whose groups are array slices.  Both give the same
    groups from the same draws, so a caller that only iterates takes
    either."""
    draws = sample_alias(alias_for_schedule(sched), rng, size=count)
    if count < _GROUP_SORT_MIN:
        groups: dict[int, list[int]] = defaultdict(list)
        for t, step in zip(range(count) if ids is None else ids, draws.tolist()):
            groups[step].append(t)
        return sorted(groups.items(), reverse=True)
    key = sched.k - draws
    order = np.argsort(key.astype(np.uint16) if sched.k < 2 ** 16 else key, kind="stable")
    ranked = draws[order]
    # draws are nonnegative, so the prepended -1 opens the first group
    starts = np.flatnonzero(np.diff(ranked, prepend=-1))
    if ids is not None:
        order = np.array(ids, dtype=np.int64)[order]
    return StepPartition(order, ranked[starts].tolist(), starts.tolist() + [count])
