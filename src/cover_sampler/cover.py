"""Set-cover solvers built on the rising sampling schedule.

Three solvers share one sampling law:

* ``f_approx_online``     - per step, samples live elements and adds every set
  containing a sampled element (fresh coins each step).
* ``f_approx_bucketed``   - draws each element's sampling step upfront from the
  schedule's first-sample distribution (`schedule.step_groups`), then sweeps
  the steps once; output is distributed identically to the online variant but
  touches each element once.
* ``hdelta_cover``        - size-threshold solver: descending size levels, and
  within a level the same upfront step draw applied to the candidate sets,
  with lazy downward rebucketing as sets shrink.

All three commit through one engine, `_SweepState`, which also drives the
phase simulator and the degree-estimation pass in ``mpc_sim``; it holds the
one covered/residual bookkeeping, the chosen sets and the count of uncovered
elements.  Each sweep step and commit takes one of two paths, chosen from
its batch size alone: a large batch gathers the instance's CSR
``indptr``/``indices`` arrays, its only stored layout, with numpy, and
dedups ids by one sort (`_sorted_distinct`); a small one walks
tuple rows from Python, each cut from the arrays on its first read
(`SetCoverInstance.set_rows`), so a solve cuts only the rows its small
batches read.  Every commit then lowers the residuals of its newly covered
elements' sets in one place: one gather of the element rows when the
commit was large or covered many elements, else row by row.  The
size-threshold solver reads the sizes of a large step group the same way,
as arrays, noisy or exact, and files the sets a level drops by one sort.
`step_groups` hands a large draw out as one array partition
(`schedule.StepPartition`), whose groups the bucketed solver and the
size-threshold solver read as array slices; only a small group becomes a
Python list.  Every path charges the work
counters from the same row lengths and leaves the same state, so outputs
and counters do not depend on the path.  Solvers are deterministic given
their arguments and the rng seed.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig
from .instance import SetCoverInstance
from .schedule import (compute_b, probabilities, schedule_for_frequency,
                       schedule_for_max_size, step_groups)
from .util import INTEGER_GUARD, guarded_floor


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


# Path crossovers, set by timing both paths on the m = 6e5 benchmark instance
# and on the 100-instance acceptance corpus.  A batch of at least _VECTOR_MIN
# items (a step's sampled elements, a step group of sets whose sizes hdelta
# reads, the sets a level of hdelta drops, the sets of a cover to verify) and
# a commit walking at least _VECTOR_MIN_ENTRIES row entries take the numpy
# path; smaller ones stay in Python, which has no per-call overhead.  A commit
# counts entries because its Python cost grows with row length.  A Python-path
# commit that newly covers at least _RESIDUAL_MIN elements lowers the
# residuals of their sets with one gather of the element rows; fewer walk the
# rows one at a time.  The gather costs about as much as walking 30 rows
# already cut, or 10 still to be cut; 64 keeps the corpus's small instances,
# whose rows are soon all cut, walking.
_VECTOR_MIN = 128
_VECTOR_MIN_ENTRIES = 256
_RESIDUAL_MIN = 64


def _gather(csr: tuple[np.ndarray, np.ndarray], rows: np.ndarray) -> np.ndarray:
    """The rows ``rows`` of ``csr = (indptr, indices)``, concatenated in order."""
    indptr, indices = csr
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    # output slot p of row r reads indices[starts[r] + p - (ends[r] - lengths[r])]
    return indices[np.repeat(starts - ends + lengths, lengths) + np.arange(total)]


def _sorted_distinct(ids: np.ndarray) -> np.ndarray:
    """``np.unique(ids)`` for a 1-d int array: the distinct ids ascending, in
    the dtype of ``ids``.  Sorts and keeps each id that differs from its
    left neighbour, without the hash-table path numpy's ``unique`` takes
    from 2.3 on."""
    ranked = np.sort(ids)
    keep = np.empty(ranked.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=keep[1:])
    return ranked[keep]


class _SweepState:
    """The one commit engine: covered elements, residual set sizes, the
    chosen sets and the number of uncovered elements, updated only by
    `commit`.  Every cover solver, the phase simulator and the
    degree-estimation pass commit through it, so the simulator reproduces
    the plain sweep bit for bit.

    A chosen set is fully covered: `commit` covers every element of each set
    it chooses.  So a chosen set's residual is 0 and no uncovered element
    belongs to it, and the sets reached from uncovered elements, or read
    with a nonzero residual, are unchosen without a test.

    `sweep_step` and `commit` pick their path per call from the batch size
    (see ``_VECTOR_MIN``), counting from the arrays.  The Python path loops
    over tuple rows through the ``bytearray``/``array`` buffers; ``set_rows``
    and ``element_rows``, the instance's row caches bound once, cut each row
    on its first read, so a solve cuts only the rows its small batches read
    and a solve whose every batch is large cuts none.  The numpy path
    gathers the instance's CSR arrays: the uncovered sampled elements' sets,
    the distinct ones (`_sorted_distinct`, ascending as ``np.unique``) and
    their rows, all through numpy views of the same buffers.  Either path
    ends in one residual update, see `commit`.  Counters are charged from
    the gathered sizes.
    """

    def __init__(self, instance: SetCoverInstance, counters: CostCounters):
        self.instance = instance
        self.counters = counters
        self.covered_buf = bytearray(instance.num_elements)
        indptr = instance.set_csr[0]
        self.row_length = array("q", (indptr[1:] - indptr[:-1]).astype(np.int64).tobytes())
        self.residual_buf = array("q", self.row_length)
        self.covered = np.frombuffer(self.covered_buf, dtype=bool)
        self.residual = np.frombuffer(self.residual_buf, dtype=np.int64)
        self.chosen: list[int] = []
        self.uncovered = instance.num_elements
        self.set_rows, self.element_rows = instance.set_rows, instance.element_rows

    def commit(self, sets, walked: int | None = None) -> None:
        """Choose ``sets`` (distinct and unchosen; a list or an int array)
        and cover their rows, collecting the newly covered elements.  Each
        of those shrinks its sets' residuals once: by one gather of the
        element rows and one ``np.subtract.at``, in O(hits) rather than
        O(num_sets), after a numpy-path commit or when there are at least
        ``_RESIDUAL_MIN`` of them, else row by row.  ``walked``, the number
        of row entries the caller reads (all of them by default), is charged
        once to edge and element touches."""
        inst = self.instance
        if isinstance(sets, list):
            # rows too few to reach the crossover are not counted first
            vector = (len(sets) * inst.delta >= _VECTOR_MIN_ENTRIES
                      and sum(map(self.row_length.__getitem__, sets))
                      >= _VECTOR_MIN_ENTRIES)
        else:
            indptr = inst.set_csr[0]
            vector = (indptr[sets + 1] - indptr[sets]).sum() >= _VECTOR_MIN_ENTRIES
            sets = sets if vector else sets.tolist()
        if vector:
            sets = np.asarray(sets, dtype=np.int64)
            self.chosen.extend(sets.tolist())
            elements = _gather(inst.set_csr, sets)
            entries = elements.size
            fresh = _sorted_distinct(elements[~self.covered[elements]])
            self.covered[fresh] = True
        else:
            set_rows, covered = self.set_rows, self.covered_buf
            self.chosen.extend(sets)
            entries = 0
            fresh = []
            for s in sets:
                row = set_rows[s]
                entries += len(row)
                for t in row:
                    if not covered[t]:
                        covered[t] = 1
                        fresh.append(t)
        self.uncovered -= len(fresh)
        if vector or len(fresh) >= _RESIDUAL_MIN:
            hit = _gather(inst.element_csr, np.asarray(fresh, dtype=np.int64))
            np.subtract.at(self.residual, hit, 1)
        else:
            residual, element_rows = self.residual_buf, self.element_rows
            for t in fresh:
                for s in element_rows[t]:
                    residual[s] -= 1
        if walked is None:
            walked = entries
        c = self.counters
        c.edge_touches += walked
        c.element_touches += walked

    def sweep_step(self, element_ids) -> None:
        """Process one step's batch of sampled elements, a list or an int
        array (simultaneously: the batch is fixed before any of its coverage
        takes effect)."""
        c = self.counters
        c.steps_executed += 1
        n = len(element_ids)
        c.element_touches += n
        inst = self.instance
        if n >= _VECTOR_MIN:
            ids = np.asarray(element_ids)
            sets = _gather(inst.element_csr, ids[~self.covered[ids]])
            c.edge_touches += sets.size
            c.set_touches += sets.size
            self.commit(_sorted_distinct(sets))
            return
        if isinstance(element_ids, np.ndarray):
            element_ids = element_ids.tolist()
        covered, element_rows = self.covered_buf, self.element_rows
        batch: dict[int, None] = {}
        for t in element_ids:
            if covered[t]:
                continue
            row = element_rows[t]
            c.edge_touches += len(row)
            c.set_touches += len(row)
            for s in row:
                batch[s] = None
        if batch:
            self.commit(list(batch))

    def cover(self) -> Cover:
        return Cover(tuple(sorted(self.chosen)))


def f_approx_online(instance: SetCoverInstance, eps: float,
                    rng: np.random.Generator) -> tuple[Cover, CostCounters]:
    """Frequency-factor solver, sampling live elements afresh each step."""
    compute_b(eps)  # rejects a bad eps even when there is no work
    counters = CostCounters()
    if instance.num_elements == 0:
        return Cover(()), counters
    sched = schedule_for_max_size(instance.delta, eps)
    p = probabilities(sched).tolist()
    state = _SweepState(instance, counters)
    live_ids = np.arange(instance.num_elements)
    for i in range(sched.k, -1, -1):
        # live_ids holds every uncovered element, so equal counts mean
        # nothing was covered since the last rescan
        if live_ids.size != state.uncovered:
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
        state.sweep_step(sampled)
    return state.cover(), counters


def f_approx_bucketed(instance: SetCoverInstance, eps: float,
                      rng: np.random.Generator) -> tuple[Cover, CostCounters]:
    """Frequency-factor solver with all sampling steps drawn upfront; each
    element is then examined exactly once, in its own step's sweep."""
    compute_b(eps)  # rejects a bad eps even when there is no work
    counters = CostCounters()
    if instance.num_elements == 0:
        return Cover(()), counters
    sched = schedule_for_max_size(instance.delta, eps)
    state = _SweepState(instance, counters)
    for _, group in step_groups(sched, rng, instance.num_elements):
        state.sweep_step(group)
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


def _level(eps: float, x: float) -> int:
    """The size level of ``x`` >= 1, floor(log_{1+eps} x), guarded;
    math.log, as numpy's log can differ in the last bit."""
    return guarded_floor(math.log(x) / math.log1p(eps))


# hdelta's level of an exact set size.  Held across calls, so a corpus of
# small solves at one eps pays each distinct size once; the bound caps a
# process that solves at many eps.
_size_level = functools.lru_cache(maxsize=1024)(_level)


def hdelta_cover(instance: SetCoverInstance, eps: float,
                 rng: np.random.Generator, oracle_delta: float = 0.0,
                 batch_log: list[BatchRecord] | None = None
                 ) -> tuple[Cover, CostCounters]:
    """Size-threshold solver: walk size levels j from the largest down; within
    a level, sets whose estimated residual size still reaches (1+eps)^j are
    committed at their pre-drawn step, smaller ones drop to a lower level.

    A visit reads a set's residual size from the commit engine and is charged
    1 + the size read at the set's previous visit (its whole row at the
    first), the length of the residual list a scan would walk.  The estimate
    is the size itself, or with ``oracle_delta`` > 0 the size times a factor
    drawn from ``rng`` uniformly in [1, 1 + oracle_delta], one per visit of a
    set with a nonzero residual, in group order: one vector per step group,
    which gives the same doubles as one draw per set.
    """
    compute_b(eps)  # rejects a bad eps even when there is no work
    if not (math.isfinite(oracle_delta) and oracle_delta >= 0):
        raise InvalidConfig(f"delta must be finite and nonnegative, got {oracle_delta}")
    counters = CostCounters()
    if instance.num_elements == 0:
        return Cover(()), counters
    sched = schedule_for_frequency(instance.freq, eps)
    log_base = math.log1p(eps)
    level_cap = _level(eps, instance.delta)
    noisy = oracle_delta > 0

    state = _SweepState(instance, counters)
    covered, residual, set_rows = state.covered_buf, state.residual_buf, state.set_rows
    seen = array("q", residual)
    seen_view = np.frombuffer(seen, dtype=np.int64)

    # exact sizes take few distinct values, so their levels are cached
    # across solves; a noisy estimate rarely recurs
    level_of = functools.partial(_level if noisy else _size_level, eps)
    levels: dict[int, list[int]] = defaultdict(list)

    def file_by_level(sets: np.ndarray, estimates: np.ndarray, cap: int) -> None:
        """Append each set to the level of its estimate, clamped to [0, cap],
        in the order given: numpy's log, which can differ from math.log in
        the last bit, with math.log redone for each quotient near enough an
        integer that the guarded floor could move, then one stable sort."""
        quotients = np.log(estimates) / log_base
        found = np.floor(quotients).astype(np.int64)
        near = np.flatnonzero(np.abs(quotients - np.rint(quotients)) <= 2 * INTEGER_GUARD)
        found[near] = [level_of(e) for e in estimates[near].tolist()]
        targets = np.maximum(np.minimum(found, cap), 0)
        order = np.argsort(targets, kind="stable")
        ranked, ids = targets[order], sets[order]
        # levels are nonnegative, so the prepended -1 opens the first run
        starts = np.flatnonzero(np.diff(ranked, prepend=-1))
        bounds = starts.tolist() + [order.size]
        for level, a, b in zip(ranked[starts].tolist(), bounds, bounds[1:]):
            levels[level] += ids[a:b].tolist()

    if instance.num_sets >= _VECTOR_MIN:
        live = np.flatnonzero(state.residual)
        file_by_level(live, state.residual[live], level_cap)
    else:
        for s, n in enumerate(residual):
            if n:
                levels[min(level_of(n), level_cap)].append(s)

    for j in range(level_cap, -1, -1):
        members = levels.pop(j, [])
        if not members:
            continue
        threshold = (1.0 + eps) ** j
        # meets_threshold's comparison, with its bound computed once
        guard = threshold * (1.0 - INTEGER_GUARD)
        # every set this level drops goes to a lower one, read only after
        # this level ends, so a large level files them all after its last
        # group; a small one files each at once
        defer = len(members) >= _VECTOR_MIN
        dropped, dropped_estimates = [], []
        for i, group in step_groups(sched, rng, len(members), members):
            counters.steps_executed += 1
            if len(group) >= _VECTOR_MIN:
                # a large group is read and tested with arrays, its noise
                # drawn as one vector, which gives the same doubles as one
                # draw per set
                sets = np.asarray(group)
                sizes = state.residual[sets]
                before = int(seen_view[sets].sum())
                seen_view[sets] = sizes
                live = sizes != 0
                sets, sizes = sets[live], sizes[live]
                estimates = (sizes * rng.uniform(1.0, 1.0 + oracle_delta, sizes.size)
                             if noisy else sizes)
                meets = estimates >= guard
                batch, batch_sizes = sets[meets].tolist(), sizes[meets].tolist()
                drop = ~meets
                dropped += sets[drop].tolist()
                dropped_estimates += estimates[drop].tolist()
                counters.rebucket_events += len(sets) - len(batch)
            else:
                if isinstance(group, np.ndarray):
                    group = group.tolist()
                if noisy:
                    # one vector over the sets with a nonzero residual, in
                    # group order, the same doubles as one draw per set
                    live = sum(1 for s in group if residual[s])
                    factors = iter(rng.uniform(1.0, 1.0 + oracle_delta, live).tolist())
                before = 0
                batch, batch_sizes = [], []
                for s in group:
                    before += seen[s]
                    size = seen[s] = residual[s]
                    if size == 0:
                        continue
                    estimate = size * next(factors) if noisy else size
                    if estimate >= guard:
                        batch.append(s)
                        batch_sizes.append(size)
                    else:
                        counters.rebucket_events += 1
                        if defer:
                            dropped.append(s)
                            dropped_estimates.append(estimate)
                        else:
                            levels[max(min(level_of(estimate), j - 1), 0)].append(s)
            counters.set_touches += len(group) + before
            counters.edge_touches += before
            if not batch:
                continue
            if batch_log is not None:
                max_live = int(state.residual.max(initial=0))
                # coverage has not moved since the batch was read, so this
                # counts each newly covered element once per batch set that
                # covers it
                covering = Counter(t for s in batch for t in set_rows[s]
                                   if not covered[t])
                batch_log.append(BatchRecord(
                    level=j, step=i, set_ids=tuple(batch),
                    min_committed_size=min(batch_sizes), max_live_size=max_live,
                    cover_multiplicities=tuple(covering.values())))
            state.commit(batch, sum(batch_sizes))
        if dropped:
            file_by_level(np.array(dropped), np.array(dropped_estimates), j - 1)
    return state.cover(), counters


def verify_cover(instance: SetCoverInstance, cover: Cover) -> tuple[bool, int | None]:
    """True when the chosen sets cover every element; otherwise False plus the
    lowest uncovered element id."""
    chosen = cover.chosen_sets
    for s in chosen:
        if not (0 <= s < instance.num_sets):
            raise InvalidConfig(f"set id {s} out of range")
    covered = bytearray(instance.num_elements)
    if len(chosen) >= _VECTOR_MIN:
        # one gather of the chosen rows, through a mask over the incidences
        rows = np.zeros(instance.num_sets, dtype=bool)
        rows[np.fromiter(chosen, dtype=np.int64, count=len(chosen))] = True
        indptr, indices = instance.set_csr
        np.frombuffer(covered, dtype=bool)[indices[np.repeat(rows, np.diff(indptr))]] = True
    else:
        set_rows = instance.set_rows
        for s in chosen:
            for t in set_rows[s]:
                covered[t] = 1
    missing = covered.find(0)
    return (True, None) if missing < 0 else (False, missing)
