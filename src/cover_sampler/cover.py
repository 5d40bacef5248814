"""Set-cover solvers built on the rising sampling schedule.

Three solvers share one sampling law:

* ``f_approx_online``     - per step, samples live elements and adds every set
  containing a sampled element (fresh coins each step).
* ``f_approx_bucketed``   - draws each element's sampling step upfront from the
  schedule's first-sample distribution, then sweeps the steps once; output is
  distributed identically to the online variant but touches each element once.
* ``hdelta_cover``        - size-threshold solver: descending size levels, and
  within a level the same upfront bucketing applied to the candidate sets,
  with lazy downward rebucketing as sets shrink.

All three commit through one step, `_SweepState.commit`, which also drives
the phase simulator and the degree-estimation pass in ``mpc_sim``; it holds
the one covered/chosen/residual bookkeeping.  Solvers are deterministic given
(instance, eps, rng seed).
"""

from __future__ import annotations

import math
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from .instance import SetCoverInstance
from .schedule import (alias_for_schedule, compute_b, probabilities,
                       sample_alias, schedule_for_frequency,
                       schedule_for_max_size)
from .util import guarded_floor, meets_threshold


@dataclass(frozen=True)
class Cover:
    """Chosen set ids, sorted and duplicate-free."""

    chosen_sets: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.chosen_sets)


@dataclass
class CostCounters:
    """Work accounting.

    element_touches: element visits (bucket/sample examinations plus coverage
    markings).  set_touches: set visits; for the size-threshold solver each
    visit is weighted by 1 + the residual list length scanned, matching the
    geometric rebucketing cost.  edge_touches: adjacency entries traversed.
    steps_executed: steps that performed work.  rebucket_events: sets moved to
    a lower size level.
    """

    element_touches: int = 0
    set_touches: int = 0
    edge_touches: int = 0
    steps_executed: int = 0
    rebucket_events: int = 0


class ExactSize:
    """Size oracle returning the true residual size."""

    delta = 0.0

    def estimate(self, set_id: int, residual_size: int) -> float:
        return float(residual_size)


class NoisyExactSize:
    """Size oracle over-approximating by a uniform factor in [1, 1+delta]."""

    def __init__(self, delta: float, rng: np.random.Generator):
        if delta < 0:
            raise ValueError("delta must be nonnegative")
        self.delta = delta
        self.rng = rng

    def estimate(self, set_id: int, residual_size: int) -> float:
        return residual_size * self.rng.uniform(1.0, 1.0 + self.delta)


def _effective_eps(eps: float, calibrated: bool) -> float:
    # the calibrated flag trades a 4x longer schedule for the tighter (1+eps)
    # guarantee; the caller's eps must be in range either way
    compute_b(eps)
    return eps / 4.0 if calibrated else eps


class _SweepState:
    """The one commit engine: covered elements, chosen sets and residual set
    sizes, updated only by `commit`.  Every cover solver, the phase simulator
    and the degree-estimation pass commit through it, so the simulator
    reproduces the plain sweep bit for bit."""

    def __init__(self, instance: SetCoverInstance, counters: CostCounters):
        self.instance = instance
        self.counters = counters
        # Loops read and write single entries through the buffers, which
        # skips numpy's per-element overhead; the numpy views share their
        # memory for the vector readers.
        self.covered_buf = bytearray(instance.num_elements)
        self.chosen_buf = bytearray(instance.num_sets)
        self.residual_buf = array("q", map(len, instance.set_neighbors))
        self.covered = np.frombuffer(self.covered_buf, dtype=bool)
        self.set_chosen = np.frombuffer(self.chosen_buf, dtype=bool)
        self.residual = np.frombuffer(self.residual_buf, dtype=np.int64)
        self.chosen: list[int] = []

    def commit(self, s: int, elements) -> None:
        """Choose set ``s`` and cover ``elements``, the part of it the caller
        walks; each newly covered element shrinks its sets' residuals once."""
        c = self.counters
        self.chosen_buf[s] = 1
        self.chosen.append(s)
        c.edge_touches += len(elements)
        c.element_touches += len(elements)
        covered, residual = self.covered_buf, self.residual_buf
        element_neighbors = self.instance.element_neighbors
        for t in elements:
            if not covered[t]:
                covered[t] = 1
                for s2 in element_neighbors[t]:
                    residual[s2] -= 1

    def sweep_step(self, element_ids) -> None:
        """Process one step's batch of sampled elements (simultaneously: the
        batch is fixed before any of its coverage takes effect)."""
        c = self.counters
        c.steps_executed += 1
        inst = self.instance
        covered, chosen = self.covered_buf, self.chosen_buf
        batch: dict[int, None] = {}
        for t in element_ids:
            c.element_touches += 1
            if covered[t]:
                continue
            c.edge_touches += len(inst.element_neighbors[t])
            for s in inst.element_neighbors[t]:
                c.set_touches += 1
                if not chosen[s]:
                    batch[s] = None
        for s in batch:
            self.commit(s, inst.set_neighbors[s])

    def cover(self) -> Cover:
        return Cover(tuple(sorted(self.chosen)))


def draw_buckets(instance: SetCoverInstance, sched, rng) -> np.ndarray:
    """Per-element sampling step, drawn upfront via the alias table."""
    table = alias_for_schedule(sched)
    return sample_alias(table, rng, size=instance.num_elements)


def buckets_by_step(assignment: np.ndarray) -> dict[int, list[int]]:
    """Ids 0..n-1 grouped by their drawn step, ascending within each step."""
    buckets: dict[int, list[int]] = defaultdict(list)
    for t, x in enumerate(assignment.tolist()):
        buckets[x].append(t)
    return buckets


def f_approx_online(instance: SetCoverInstance, eps: float,
                    rng: np.random.Generator,
                    calibrated: bool = False) -> tuple[Cover, CostCounters]:
    """Frequency-factor solver, sampling live elements afresh each step."""
    eff = _effective_eps(eps, calibrated)
    counters = CostCounters()
    if instance.num_elements == 0:
        return Cover(()), counters
    sched = schedule_for_max_size(instance.delta, eff)
    p = probabilities(sched)
    state = _SweepState(instance, counters)
    live_ids = np.arange(instance.num_elements)
    for i in range(sched.k, -1, -1):
        live_ids = live_ids[~state.covered[live_ids]]
        n_live = live_ids.size
        if n_live == 0:
            break
        cnt = n_live if p[i] >= 1.0 else int(rng.binomial(n_live, p[i]))
        if cnt == 0:
            counters.steps_executed += 1
            continue
        if cnt == n_live:
            sampled = live_ids
        else:
            sampled = np.sort(rng.choice(live_ids, size=cnt, replace=False))
        state.sweep_step(sampled.tolist())
    return state.cover(), counters


def f_approx_bucketed(instance: SetCoverInstance, eps: float,
                      rng: np.random.Generator,
                      calibrated: bool = False) -> tuple[Cover, CostCounters]:
    """Frequency-factor solver with all sampling steps drawn upfront; each
    element is then examined exactly once, in its own step's sweep."""
    eff = _effective_eps(eps, calibrated)
    counters = CostCounters()
    if instance.num_elements == 0:
        return Cover(()), counters
    sched = schedule_for_max_size(instance.delta, eff)
    buckets = buckets_by_step(draw_buckets(instance, sched, rng))
    state = _SweepState(instance, counters)
    for i in sorted(buckets, reverse=True):
        state.sweep_step(buckets[i])
    return state.cover(), counters


@dataclass
class BatchRecord:
    """One committed batch of the size-threshold solver: the level and step it
    happened at, true residual sizes at commit time, the residual-size maximum
    over all still-live sets, and how many batch sets cover each element the
    batch newly covered."""

    level: int
    step: int
    set_ids: tuple[int, ...]
    min_committed_size: int
    max_live_size: int
    cover_multiplicities: tuple[int, ...]


def hdelta_cover(instance: SetCoverInstance, eps: float,
                 rng: np.random.Generator, size_oracle=None,
                 calibrated: bool = False,
                 batch_log: list[BatchRecord] | None = None
                 ) -> tuple[Cover, CostCounters]:
    """Size-threshold solver: walk size levels j from the largest down; within
    a level, sets whose estimated residual size still reaches (1+eps)^j are
    committed at their pre-drawn step, smaller ones drop to a lower level.
    """
    eff = _effective_eps(eps, calibrated)
    counters = CostCounters()
    if instance.num_elements == 0:
        return Cover(()), counters
    oracle = size_oracle if size_oracle is not None else ExactSize()
    sched = schedule_for_frequency(instance.freq, eff)
    table = alias_for_schedule(sched)
    log_base = math.log1p(eff)
    level_cap = guarded_floor(math.log(instance.delta) / log_base)

    packed: list[list[int]] = [list(a) for a in instance.set_neighbors]
    state = _SweepState(instance, counters)
    covered = state.covered_buf

    levels: dict[int, list[int]] = defaultdict(list)
    for s, adj in enumerate(instance.set_neighbors):
        if adj:
            levels[min(guarded_floor(math.log(len(adj)) / log_base), level_cap)].append(s)

    for j in range(level_cap, -1, -1):
        members = levels.pop(j, [])
        if not members:
            continue
        threshold = (1.0 + eff) ** j
        step_groups = buckets_by_step(sample_alias(table, rng, size=len(members)))
        for i in sorted(step_groups, reverse=True):
            counters.steps_executed += 1
            batch: list[int] = []
            for idx in step_groups[i]:
                s = members[idx]
                before = len(packed[s])
                counters.set_touches += 1 + before
                counters.edge_touches += before
                packed[s] = [t for t in packed[s] if not covered[t]]
                size = len(packed[s])
                if size == 0:
                    continue
                estimate = oracle.estimate(s, size)
                if meets_threshold(estimate, threshold):
                    batch.append(s)
                else:
                    new_level = min(guarded_floor(math.log(estimate) / log_base), j - 1)
                    levels[max(new_level, 0)].append(s)
                    counters.rebucket_events += 1
            if not batch:
                continue
            if batch_log is not None:
                live_mask = ~state.set_chosen
                max_live = int(state.residual[live_mask].max()) if live_mask.any() else 0
                # every packed list in the batch was filtered before the
                # batch commits, so this counts each newly covered element
                # once per batch set that covers it
                batch_log.append(BatchRecord(
                    level=j, step=i, set_ids=tuple(batch),
                    min_committed_size=min(len(packed[s]) for s in batch),
                    max_live_size=max_live,
                    cover_multiplicities=tuple(
                        Counter(t for s in batch for t in packed[s]).values())))
            for s in batch:
                state.commit(s, packed[s])
    return state.cover(), counters


def verify_cover(instance: SetCoverInstance, cover: Cover) -> tuple[bool, int | None]:
    """True when the chosen sets cover every element; otherwise False plus the
    lowest uncovered element id."""
    covered = np.zeros(instance.num_elements, dtype=bool)
    for s in cover.chosen_sets:
        if not (0 <= s < instance.num_sets):
            raise ValueError(f"set id {s} out of range")
        for t in instance.set_neighbors[s]:
            covered[t] = True
    missing = np.flatnonzero(~covered)
    if missing.size:
        return False, int(missing[0])
    return True, None
