"""Desk-scale simulation of the distributed execution: phase planning (how
many schedule steps fit into one communication-bounded phase), phase-by-phase
execution measuring the quantities the distributed analysis bounds, edge
sparsification accounting, sample-based size estimation, and best-of-many
amplification.

The simulator is logical: one machine executes the bucketed solver phase by
phase and measures relevant-subgraph sizes, neighborhood-ball sizes and
residual degrees.  Ball sizes are exact: a word-matrix BFS over the phase's
relevant subgraph measures balls batch by batch until a bound rules out every
unmeasured node.  No networking or machine partitioning is emulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cover import Cover, CostCounters, _gather, _level, _SweepState
from .errors import InvalidConfig
from .instance import Hypergraph, SetCoverInstance
from .schedule import (compute_b, probabilities, schedule_for_frequency,
                       schedule_for_max_size, step_groups)
from .util import derive_rng, meets_threshold


# Planner constants.  The theory fixes neither; they are tuned so desk-scale
# inputs exercise compressed and uncompressed phases alike.  TAU_CONSTANT
# scales the residual-degree proxy tau = c * ln(n) / p(i).
# CASE1_EXPONENT_SCALE scales the exponent of the no-compression gate
# (ln n)^(scale * eps^-2 * ln ln n); at 1.0 the gate swallows every
# desk-scale input.
TAU_CONSTANT = 1.0
CASE1_EXPONENT_SCALE = 0.05


@dataclass(frozen=True)
class PlannedPhase:
    start_step: int
    length: int
    case_tag: int
    tau: float
    # simulated communication rounds, ceil(log2 length) + 2, set once here
    # for the plan's sum and the simulator's records to read
    rounds: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rounds", (self.length - 1).bit_length() + 2)


@dataclass(frozen=True)
class PhasePlan:
    """Partition of the schedule steps k..0 into phases, each costing its
    `PlannedPhase.rounds`."""

    phases: tuple[PlannedPhase, ...]
    k: int
    predicted_mpc_rounds: int


def plan_phases(delta: int, freq: int, eps: float, n: int) -> PhasePlan:
    """Walk steps k..0 assigning each phase a length by the residual-degree
    proxy tau: length 1 below the no-compression gate (case 1), otherwise
    ceil(sqrt(ln tau)/eps) when the frequency is small (case 2) or
    ceil(ln tau / ln freq) when it dominates (case 3).  Lengths are clamped to
    the remaining steps and to ceil(log2 n)."""
    if delta < 1 or freq < 1:
        raise InvalidConfig("delta and freq must be >= 1")
    if n < 2:
        raise InvalidConfig("n must be >= 2")
    sched = schedule_for_max_size(delta, eps)
    p = probabilities(sched)
    ln_n = math.log(n)
    cap = max(1, math.ceil(math.log2(n)))
    exponent = CASE1_EXPONENT_SCALE * (eps ** -2) * math.log(max(ln_n, 1.0 + 1e-12))
    try:
        case1_gate = ln_n ** exponent
    except OverflowError:
        # a gate beyond float range leaves every step in case 1
        case1_gate = math.inf
    # tau is non-decreasing in the step index, so the no-compression zone is
    # the prefix [0, gate_step]; compressed phases stop at its boundary
    gate_step = int(np.count_nonzero(TAU_CONSTANT * ln_n / p <= max(case1_gate, 1.0))) - 1
    # the step loop reads p one entry at a time, cheaper from a list
    p = p.tolist()
    phases: list[PlannedPhase] = []
    i = sched.k
    while i >= 0:
        tau = TAU_CONSTANT * ln_n / p[i]
        if i <= gate_step:
            case, r = 1, 1
        else:
            ln_tau = math.log(tau)
            r2 = math.ceil(math.sqrt(ln_tau) / eps)
            if freq >= 2 and freq > (1.0 + eps) ** (r2 / sched.b) * ln_n ** 2:
                case, r = 3, math.ceil(ln_tau / math.log(freq))
            else:
                case, r = 2, r2
            r = min(r, i - gate_step)
        r = max(1, min(r, i + 1, cap))
        phases.append(PlannedPhase(start_step=i, length=r, case_tag=case, tau=tau))
        i -= r
    return PhasePlan(phases=tuple(phases), k=sched.k,
                     predicted_mpc_rounds=sum(ph.rounds for ph in phases))


@dataclass
class PhaseRecord:
    index: int
    case_tag: int
    start_step: int
    end_step: int
    length: int
    p_start: float
    p_end: float
    live_elements: int
    relevant_elements: int
    nonisolated_sets: int
    max_ball: int
    residual_degree_after: int
    cumulative_rounds: int


@dataclass
class MpcReport:
    phases: list[PhaseRecord] = field(default_factory=list)
    simulated_rounds: int = 0
    counters: CostCounters = field(default_factory=CostCounters)


# Ball sources are measured in batches: the first of this many, each later
# one twice the last, up to 16 times this.  At 256 a node holds at most 4096
# source bits, 64 words or 512 bytes, so the three word matrices of a batch
# on an n-node graph stay within about 3 * n * 512 bytes.
_BALL_BATCH = 256

_SWAR = tuple(np.uint64(c) for c in (0x5555555555555555, 0x3333333333333333,
                                     0x0F0F0F0F0F0F0F0F, 0x0101010101010101))


def _row_popcounts(words: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Set bits per row of the uint64 matrix ``words``, by the shift-and-mask
    popcount, worked in place in ``words`` and ``scratch`` (same shape)."""
    m1, m2, m4, h01 = _SWAR
    np.right_shift(words, np.uint64(1), out=scratch)
    scratch &= m1
    words -= scratch
    np.right_shift(words, np.uint64(2), out=scratch)
    scratch &= m2
    words &= m2
    words += scratch
    np.right_shift(words, np.uint64(4), out=scratch)
    words += scratch
    words &= m4
    words *= h01
    words >>= np.uint64(56)
    return words.sum(axis=1).astype(np.int64)


def _max_ball_size(n: int, a: np.ndarray, b: np.ndarray, radius: int) -> int:
    """Largest number of nodes within ``radius`` hops of any node of the
    simple undirected graph on nodes 0..n-1 with edges a[i]-b[i].

    At radius 1 that is 1 + the largest degree.  Otherwise sources are
    measured in batches by a word-matrix BFS: each node holds one bit per
    batch source, and after r rounds of reach[v] |= reach[w] over every edge
    the bit of source s in reach[v] is set iff s lies within r hops of v.
    Nodes are relabelled by decreasing degree, so the nodes with more than d
    neighbours are a prefix and a round is one gather and one OR per d.

    A source's ball is its column's popcount.  A row's popcount counts the
    batch sources within r hops of its node, so a node v whose ball is not
    yet measured holds at most n minus the measured sources farther than r
    from it.  Once no such bound beats the largest measured ball, that ball
    is the answer.  Each batch takes half its sources from the open nodes of
    highest bound, which may beat it, and half from those of lowest, which
    lie far from every source so far (the first batch: the lowest- and the
    highest-degree nodes)."""
    if n == 0:
        return 0
    deg = np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
    if radius == 1 or a.size == 0:
        return 1 + int(deg.max())
    order = np.argsort(-deg, kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    deg = deg[order]
    src = rank[np.concatenate((a, b))]
    dst = rank[np.concatenate((b, a))]
    by_src = np.argsort(src, kind="stable")
    src, dst = src[by_src], dst[by_src]
    # entry j is neighbour number pos[j] of node src[j]; ordered by that
    # number, the d-th neighbours of nodes 0..c_d-1 lie side by side
    pos = np.arange(src.size) - (np.cumsum(deg) - deg)[src]
    nbr = dst[np.argsort(pos, kind="stable")]
    ends = np.cumsum(np.bincount(pos)).tolist()
    first, *rest = (nbr[lo:hi] for lo, hi in zip([0] + ends, ends))
    linked = first.size  # the nodes after these are isolated

    best = taken = 0
    reached = np.zeros(n, dtype=np.int64)  # measured sources within radius
    unmeasured = np.ones(n, dtype=bool)
    size = _BALL_BATCH
    open_ = np.arange(n)
    while open_.size:
        sources = open_
        if open_.size > size:
            # the least reached and the most reached, ties by degree
            ranked = open_[np.argsort(reached[open_], kind="stable")]
            sources = np.concatenate((ranked[:size - size // 2],
                                      ranked[open_.size - size // 2:]))
        count = sources.size
        shape = (n, -(-count // 64))
        reach = np.zeros(shape, dtype=np.uint64)
        # bit j of a row's bytes, read little-endian, is source j
        j = np.arange(count)
        reach.view(np.uint8)[sources, j >> 3] = (1 << (j & 7)).astype(np.uint8)
        grown = reach.copy()
        gathered = np.empty(shape, dtype=np.uint64)
        for _ in range(radius):
            np.take(reach, first, axis=0, out=gathered[:linked], mode="clip")
            np.bitwise_or(reach[:linked], gathered[:linked], out=grown[:linked])
            for nbrs in rest:
                c = nbrs.size
                np.take(reach, nbrs, axis=0, out=gathered[:c], mode="clip")
                np.bitwise_or(grown[:c], gathered[:c], out=grown[:c])
            reach, grown = grown, reach
        balls = np.zeros(count, dtype=np.int64)
        # 128 rows of bits, at most 512 KiB unpacked, sum within uint8
        for lo in range(0, n, 128):
            balls += np.add.reduce(np.unpackbits(
                reach.view(np.uint8)[lo:lo + 128], axis=1, count=count,
                bitorder="little"), axis=0, dtype=np.uint8)
        best = max(best, int(balls.max()))
        taken += count
        unmeasured[sources] = False
        reached += _row_popcounts(reach, gathered)
        # ball(v) <= n - (taken - reached[v]), which must beat best
        open_ = np.flatnonzero(unmeasured & (reached > best - n + taken))
        size = min(2 * size, 16 * _BALL_BATCH)
    return best


def simulate_mpc_f_approx(instance: SetCoverInstance, eps: float,
                          rng: np.random.Generator) -> tuple[Cover, MpcReport]:
    """Execute the bucketed frequency solver phase by phase along the plan,
    measuring per phase the relevant subgraph (elements whose pre-drawn step
    falls inside the phase, plus live sets touching them), the largest
    neighborhood ball of the phase radius inside it, and the largest residual
    set size after the phase.

    The bucket draws are the only randomness, so for equal seeds the cover is
    bit-identical to ``f_approx_bucketed``.
    """
    compute_b(eps)  # rejects a bad eps even when there is no work
    report = MpcReport()
    if instance.num_elements == 0:
        return Cover(()), report
    sched = schedule_for_max_size(instance.delta, eps)
    p = probabilities(sched).tolist()
    groups = list(step_groups(sched, rng, instance.num_elements))
    plan = plan_phases(instance.delta, max(instance.freq, 1), eps,
                       instance.num_sets + instance.num_elements)
    state = _SweepState(instance, report.counters)
    indptr = instance.element_csr[0]
    rounds = 0
    # only a commit changes residuals, and every commit grows state.chosen,
    # so the whole-array scan is redone only when the number of chosen sets
    # moved since it last ran
    residual_scanned_at = -1
    # the phases walk steps k..0 in turn and the groups fall by step, so a
    # phase's groups run on from the last phase's
    g = 0
    for idx, phase in enumerate(plan.phases):
        i_hi = phase.start_step
        i_lo = phase.start_step - phase.length + 1
        live_elements = state.uncovered
        first = g
        while g < len(groups) and groups[g][0] >= i_lo:
            g += 1
        relevant = nonisolated = max_ball = 0
        if g > first:
            # a phase that drew no step makes no numpy call
            phase_groups = [group for _, group in groups[first:g]]
            drawn = np.concatenate(phase_groups)
            elements = drawn[~state.covered[drawn]]
            relevant = elements.size
            if relevant:
                # relevant element u is node u; the sets on their rows,
                # unchosen as the elements are uncovered, follow them
                sets, set_node = np.unique(_gather(instance.element_csr, elements),
                                           return_inverse=True)
                nonisolated = sets.size
                rows = indptr[elements + 1] - indptr[elements]
                max_ball = _max_ball_size(
                    relevant + nonisolated, np.repeat(np.arange(relevant), rows),
                    relevant + set_node, phase.length)
            for group in phase_groups:
                state.sweep_step(group)
        if len(state.chosen) != residual_scanned_at:
            residual_scanned_at = len(state.chosen)
            residual_after = int(state.residual.max(initial=0))
        rounds += phase.rounds
        report.phases.append(PhaseRecord(
            index=idx, case_tag=phase.case_tag, start_step=i_hi, end_step=i_lo,
            length=phase.length, p_start=p[i_hi], p_end=p[i_lo],
            live_elements=live_elements, relevant_elements=relevant,
            nonisolated_sets=nonisolated, max_ball=max_ball,
            residual_degree_after=residual_after, cumulative_rounds=rounds))
    report.simulated_rounds = rounds
    return state.cover(), report


def sparsify_non_isolated_counts(hg: Hypergraph, p: float, trials: int,
                                 rng: np.random.Generator) -> np.ndarray:
    """Vectorized non-isolated vertex counts over repeated sparsifications."""
    if not (0.0 <= p <= 1.0):
        raise InvalidConfig("p must lie in [0, 1]")
    if trials < 0:
        raise InvalidConfig(f"trials must be nonnegative, got {trials}")
    num_edges = hg.num_edges
    if num_edges == 0:
        return np.zeros(trials, dtype=np.int64)
    edge_of = np.repeat(np.arange(num_edges), np.diff(hg.edge_csr[0]))
    counts = np.empty(trials, dtype=np.int64)
    # one row per trial draws the same stream as one trials x E draw, in
    # memory that does not grow with the trial count
    for r in range(trials):
        kept = rng.random(num_edges) < p
        counts[r] = np.count_nonzero(np.bincount(hg.vertex_index[kept[edge_of]]))
    return counts


@dataclass
class DegreeBatch:
    step: int
    set_ids: tuple[int, ...]
    estimates: tuple[float, ...]
    true_sizes: tuple[int, ...]


@dataclass
class DegreeEstimationTrace:
    level: int
    threshold: float
    q: float
    k: int
    batches: list[DegreeBatch] = field(default_factory=list)


# Bit generators whose ``advance(n)`` skips exactly n doubles of
# ``Generator.random``: one 64-bit output per double.
_ADVANCE_BY_DOUBLES = (np.random.PCG64, np.random.PCG64DXSM)


def simulate_degree_estimation(instance: SetCoverInstance, eps: float,
                               level: int, rng: np.random.Generator
                               ) -> DegreeEstimationTrace:
    """One size-level pass where residual set sizes are read from upfront
    element samples instead of exact counts.

    Elements are sampled into k+1 independent pools at rate
    q = min(100/eps^2 * ln(n) / (1+eps)^level, 1); a set's running size
    estimate is the minimum over executed steps of |residual(set) & pool|/q.
    Sets whose estimate still reaches (1+eps)^level are sampled at the step
    probability, committed in batches, and removed with their elements.

    The pools are the first (k+1) x T doubles of ``rng``'s stream, row i
    before row i+1, and the sampling coins follow them.  Row i is drawn only
    when step i runs, from a copy of the bit generator advanced by i*T, and
    the step counts each set's pooled uncovered elements through the commit
    engine's element rows.  One running-minimum rule serves every rate: at
    q = 1 every row is all True, so none is drawn and the counts are the
    engine's residuals, re-read only after a commit.  ``rng`` itself
    is advanced past the pools.  This needs a bit generator whose ``advance``
    skips doubles, PCG64 or PCG64DXSM (``derive_rng`` gives PCG64); any other
    is refused with `InvalidConfig` and left untouched.  The pass stops at the
    first step with no eligible set: estimates only fall and chosen sets stay
    chosen, so no later step can commit or draw a coin.  Batches and the
    final state of ``rng`` are those of an upfront fill run to step 0.
    """
    compute_b(eps)  # before the level cap divides by log1p(eps)
    bitgen = rng.bit_generator
    if type(bitgen) not in _ADVANCE_BY_DOUBLES:
        raise InvalidConfig("degree estimation needs a PCG64 or PCG64DXSM bit "
                            f"generator, got {type(bitgen).__name__}")
    level_cap = _level(eps, max(instance.delta, 1))
    if not (0 <= level <= level_cap):
        raise InvalidConfig(f"level must lie in [0, {level_cap}]")
    sched = schedule_for_frequency(max(instance.freq, 1), eps)
    p = probabilities(sched)
    n_total = instance.num_sets + instance.num_elements
    threshold = (1.0 + eps) ** level
    q = min(100.0 / eps ** 2 * math.log(max(n_total, 2)) / threshold, 1.0)
    trace = DegreeEstimationTrace(level=level, threshold=threshold, q=q, k=sched.k)
    num_elements = instance.num_elements
    if num_elements == 0:
        return trace

    start = bitgen.state
    bitgen.advance((sched.k + 1) * num_elements)
    # advance drops a buffered 32-bit half, which drawing doubles keeps
    moved = bitgen.state
    moved["has_uint32"], moved["uinteger"] = start["has_uint32"], start["uinteger"]
    bitgen.state = moved
    cursor = type(bitgen)()
    draw = np.random.Generator(cursor)

    def pool(i: int) -> np.ndarray:
        cursor.state = start
        cursor.advance(i * num_elements)
        return draw.random(num_elements) < q

    state = _SweepState(instance, CostCounters())
    estimates = np.full(instance.num_sets, np.inf)
    ids = None  # the eligible sets, None once a commit may have moved the counts
    for i in range(sched.k, -1, -1):
        if q < 1.0 or ids is None:
            # at q = 1 every pool is all True, so the counts are the
            # residuals: they never rise, and only a commit moves them
            counts = (state.residual if q == 1.0 else np.bincount(
                _gather(instance.element_csr, np.flatnonzero(pool(i) & ~state.covered)),
                minlength=instance.num_sets))
            estimates = np.minimum(estimates, counts / q)
            # a chosen set counts no uncovered element, so its estimate is 0
            ids = np.flatnonzero(meets_threshold(estimates, threshold))
        if ids.size == 0:
            break
        sampled = ids[rng.random(ids.size) < p[i]]
        if sampled.size == 0:
            continue
        trace.batches.append(DegreeBatch(
            step=i, set_ids=tuple(sampled.tolist()),
            estimates=tuple(estimates[sampled].tolist()),
            true_sizes=tuple(state.residual[sampled].tolist())))
        state.commit(sampled)
        ids = None
    return trace


def amplify_to_whp(solver, target, eps: float, copies: int, seed: int = 0,
                   maximize: bool = False, validator=None):
    """Run ``copies`` independently seeded solver instances and return
    (best valid solution, its counters, its copy index).  Copy c uses the
    stream derived from (seed, c), so copies=1 reproduces a single run at
    stream (seed, 0).  ``validator(target, solution)`` may veto candidates;
    if every copy is vetoed the last one is returned so the caller can
    report the failure."""
    if copies < 1:
        raise InvalidConfig("copies must be >= 1")
    best = None
    last = None
    for c in range(copies):
        solution, counters = solver(target, eps, derive_rng(seed, c))
        last = (solution, counters, c)
        if validator is not None and not validator(target, solution)[0]:
            continue
        key = solution.size if maximize else -solution.size
        if best is None or key > best[0]:
            best = (key, solution, counters, c)
    if best is None:
        assert last is not None
        return last
    return best[1], best[2], best[3]
