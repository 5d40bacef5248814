"""The per-incidence Python implementations the solvers, matching, the phase
simulator and the degree-estimation pass replaced, kept as references: each
walks every incidence and charges every counter one visit at a time.  Also
the step loop that `bucket_distribution` replaced, the planner whose
no-compression zone was found by a loop over every step, neighbourhood
balls from scipy's shortest paths in place of the bit-parallel BFS, and the
exact cover search that forbids no sibling.  They read tuple rows cut whole
from the CSR arrays by `csr_rows`, not the instance's row caches, and group
their draws with `ref_buckets`, not `step_groups`, so none shares a planner,
a ball or a grouping with the code it checks."""

import math
from collections import Counter, defaultdict

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from cover_sampler.cover import BatchRecord, Cover, CostCounters
from cover_sampler.matching import Matching
from cover_sampler.mpc_sim import (CASE1_EXPONENT_SCALE, TAU_CONSTANT, DegreeBatch,
                                   MpcReport, PhasePlan, PhaseRecord, PlannedPhase)
from cover_sampler.schedule import (alias_for_schedule, probabilities, sample_alias,
                                    schedule_for_frequency, schedule_for_max_size)
from cover_sampler.util import guarded_floor, meets_threshold


def csr_rows(csr):
    """Every row of a CSR ``(indptr, indices)`` pair as a tuple, in a list."""
    indptr, indices = csr
    flat, bounds = indices.tolist(), indptr.tolist()
    return [tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])]


class RefState:
    def __init__(self, instance, counters):
        self.set_rows = csr_rows(instance.set_csr)
        self.element_rows = csr_rows(instance.element_csr)
        self.counters = counters
        self.covered = [False] * instance.num_elements
        self.set_chosen = [False] * instance.num_sets
        self.residual = [len(a) for a in self.set_rows]
        self.chosen = []

    def commit(self, s, elements):
        c = self.counters
        self.set_chosen[s] = True
        self.chosen.append(s)
        c.edge_touches += len(elements)
        c.element_touches += len(elements)
        for t in elements:
            if not self.covered[t]:
                self.covered[t] = True
                for s2 in self.element_rows[t]:
                    self.residual[s2] -= 1

    def sweep_step(self, element_ids):
        c = self.counters
        c.steps_executed += 1
        batch = {}
        for t in element_ids:
            c.element_touches += 1
            if self.covered[t]:
                continue
            c.edge_touches += len(self.element_rows[t])
            for s in self.element_rows[t]:
                c.set_touches += 1
                if not self.set_chosen[s]:
                    batch[s] = None
        for s in batch:
            self.commit(s, self.set_rows[s])

    def max_live(self):
        return max((r for r, ch in zip(self.residual, self.set_chosen) if not ch), default=0)

    def cover(self):
        return Cover(tuple(sorted(self.chosen)))


def ref_buckets(assignment):
    buckets = defaultdict(list)
    for t, x in enumerate(assignment.tolist()):
        buckets[x].append(t)
    return buckets


def ref_online(instance, eps, rng):
    counters = CostCounters()
    if instance.num_elements == 0:
        return Cover(()), counters
    sched = schedule_for_max_size(instance.delta, eps)
    p = probabilities(sched)
    state = RefState(instance, counters)
    live_ids = np.arange(instance.num_elements)
    for i in range(sched.k, -1, -1):
        live_ids = live_ids[~np.array(state.covered, dtype=bool)[live_ids]]
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


def ref_bucketed(instance, eps, rng):
    counters = CostCounters()
    if instance.num_elements == 0:
        return Cover(()), counters
    sched = schedule_for_max_size(instance.delta, eps)
    buckets = ref_buckets(sample_alias(alias_for_schedule(sched), rng,
                                       size=instance.num_elements))
    state = RefState(instance, counters)
    for i in sorted(buckets, reverse=True):
        state.sweep_step(buckets[i])
    return state.cover(), counters


def ref_hdelta(instance, eps, rng, oracle_delta=0.0, batch_log=None):
    counters = CostCounters()
    if instance.num_elements == 0:
        return Cover(()), counters
    sched = schedule_for_frequency(instance.freq, eps)
    table = alias_for_schedule(sched)
    log_base = math.log1p(eps)
    level_cap = guarded_floor(math.log(instance.delta) / log_base)
    state = RefState(instance, counters)
    packed = [list(a) for a in state.set_rows]
    levels = defaultdict(list)
    for s, adj in enumerate(state.set_rows):
        if adj:
            levels[min(guarded_floor(math.log(len(adj)) / log_base), level_cap)].append(s)
    for j in range(level_cap, -1, -1):
        members = levels.pop(j, [])
        if not members:
            continue
        threshold = (1.0 + eps) ** j
        step_groups = ref_buckets(sample_alias(table, rng, size=len(members)))
        for i in sorted(step_groups, reverse=True):
            counters.steps_executed += 1
            batch = []
            for idx in step_groups[i]:
                s = members[idx]
                before = len(packed[s])
                counters.set_touches += 1 + before
                counters.edge_touches += before
                packed[s] = [t for t in packed[s] if not state.covered[t]]
                size = len(packed[s])
                if size == 0:
                    continue
                estimate = size
                if oracle_delta:
                    estimate = size * rng.uniform(1.0, 1.0 + oracle_delta)
                if meets_threshold(estimate, threshold):
                    batch.append(s)
                else:
                    new_level = min(guarded_floor(math.log(estimate) / log_base), j - 1)
                    levels[max(new_level, 0)].append(s)
                    counters.rebucket_events += 1
            if not batch:
                continue
            if batch_log is not None:
                batch_log.append(BatchRecord(
                    level=j, step=i, set_ids=tuple(batch),
                    min_committed_size=min(len(packed[s]) for s in batch),
                    max_live_size=state.max_live(),
                    cover_multiplicities=tuple(
                        Counter(t for s in batch for t in packed[s]).values())))
            for s in batch:
                state.commit(s, packed[s])
    return state.cover(), counters


def ref_mpc(instance, eps, rng):
    report = MpcReport()
    if instance.num_elements == 0:
        return Cover(()), report
    sched = schedule_for_max_size(instance.delta, eps)
    p = probabilities(sched)
    buckets = ref_buckets(sample_alias(alias_for_schedule(sched), rng,
                                       size=instance.num_elements))
    plan = ref_plan_phases(instance.delta, max(instance.freq, 1), eps,
                           instance.num_sets + instance.num_elements)
    state = RefState(instance, report.counters)
    rounds = 0
    for idx, phase in enumerate(plan.phases):
        i_hi = phase.start_step
        i_lo = phase.start_step - phase.length + 1
        live_elements = state.covered.count(False)
        relevant = [t for i in range(i_lo, i_hi + 1) for t in buckets.get(i, ())
                    if not state.covered[t]]
        adj = [[] for _ in relevant]
        set_node = {}
        for u, t in enumerate(relevant):
            for s in state.element_rows[t]:
                if not state.set_chosen[s]:
                    if s not in set_node:
                        set_node[s] = len(adj)
                        adj.append([])
                    adj[u].append(set_node[s])
                    adj[set_node[s]].append(u)
        max_ball = ref_max_ball(adj, phase.length)
        for i in range(i_hi, i_lo - 1, -1):
            if buckets.get(i):
                state.sweep_step(buckets[i])
        rounds += phase.rounds
        report.phases.append(PhaseRecord(
            index=idx, case_tag=phase.case_tag, start_step=i_hi, end_step=i_lo,
            length=phase.length, p_start=float(p[i_hi]), p_end=float(p[i_lo]),
            live_elements=live_elements, relevant_elements=len(relevant),
            nonisolated_sets=len(set_node), max_ball=max_ball,
            residual_degree_after=state.max_live(), cumulative_rounds=rounds))
    report.simulated_rounds = rounds
    return state.cover(), report


def ref_degree_estimation(instance, eps, level, rng):
    """Batches, plus every step's estimate array, from per-set loops."""
    sched = schedule_for_frequency(max(instance.freq, 1), eps)
    p = probabilities(sched)
    threshold = (1.0 + eps) ** level
    q = min(100.0 / eps ** 2 * math.log(max(instance.num_sets + instance.num_elements, 2))
            / threshold, 1.0)
    pools = [rng.random(instance.num_elements) < q for _ in range(sched.k + 1)]
    state = RefState(instance, CostCounters())
    estimates = [math.inf] * instance.num_sets
    batches, series = [], []
    for i in range(sched.k, -1, -1):
        for s, row in enumerate(state.set_rows):
            hits = sum(1 for t in row if not state.covered[t] and pools[i][t])
            estimates[s] = min(estimates[s], hits / q)
        series.append(list(estimates))
        ids = [s for s in range(instance.num_sets) if not state.set_chosen[s]
               and estimates[s] >= threshold * (1.0 - 1e-9)]
        if not ids:
            continue
        coins = rng.random(len(ids))
        sampled = [s for s, x in zip(ids, coins) if x < p[i]]
        if not sampled:
            continue
        batches.append(DegreeBatch(
            step=i, set_ids=tuple(sampled),
            estimates=tuple(estimates[s] for s in sampled),
            true_sizes=tuple(state.residual[s] for s in sampled)))
        for s in sampled:
            state.commit(s, state.set_rows[s])
    return batches, series


def ref_bucket_distribution(sched):
    p = probabilities(sched)
    out = np.empty(sched.k + 1, dtype=float)
    surv = 1.0
    for i in range(sched.k, -1, -1):
        out[i] = p[i] * surv
        surv *= 1.0 - p[i]
    return out


def ref_matching(hg, eps, rng):
    """Matching from a dead-vertex array sized by the header, read one
    numpy scalar at a time, with every counter charged per visit."""
    counters = CostCounters()
    num_edges = hg.num_edges
    if num_edges == 0:
        return Matching(()), counters
    sched = schedule_for_max_size(hg.max_vertex_degree(), eps)

    buckets = ref_buckets(sample_alias(alias_for_schedule(sched), rng, size=num_edges))
    vertex_dead = np.zeros(hg.num_vertices, dtype=bool)
    collected: list[int] = []
    for i in sorted(buckets, reverse=True):
        counters.steps_executed += 1
        batch = []
        for e in buckets[i]:
            counters.edge_touches += len(hg.edges[e])
            if not any(vertex_dead[v] for v in hg.edges[e]):
                batch.append(e)
        for e in batch:
            collected.append(e)
            for v in hg.edges[e]:
                counters.element_touches += 1
                vertex_dead[v] = True

    vertex_use = Counter(v for e in collected for v in hg.edges[e])
    kept = [e for e in collected if all(vertex_use[v] == 1 for v in hg.edges[e])]
    return Matching(tuple(sorted(kept))), counters


def ref_max_ball(adj, radius):
    """Largest number of nodes within ``radius`` hops of any node of the
    undirected graph ``adj``, from scipy's shortest paths, taken from a
    block of sources at a time so the distances stay small."""
    n = len(adj)
    if n == 0:
        return 0
    rows = [v for v, nbrs in enumerate(adj) for _ in nbrs]
    cols = [w for nbrs in adj for w in nbrs]
    graph = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    return max(int((shortest_path(graph, directed=False, unweighted=True,
                                  indices=np.arange(lo, min(n, lo + 256))) <= radius)
                   .sum(axis=1).max())
               for lo in range(0, n, 256))


def ref_plan_phases(delta, freq, eps, n):
    """The planner with its no-compression zone found step by step."""
    if delta < 1 or freq < 1:
        raise ValueError("delta and freq must be >= 1")
    if n < 2:
        raise ValueError("n must be >= 2")
    sched = schedule_for_max_size(delta, eps)
    p = probabilities(sched)
    ln_n = math.log(n)
    cap = max(1, math.ceil(math.log2(n)))
    exponent = CASE1_EXPONENT_SCALE * (eps ** -2) * math.log(max(ln_n, 1.0 + 1e-12))
    try:
        case1_gate = ln_n ** exponent
    except OverflowError:
        case1_gate = math.inf
    gate_step = -1
    for i in range(sched.k + 1):
        if TAU_CONSTANT * ln_n / p[i] <= max(case1_gate, 1.0):
            gate_step = i
        else:
            break
    phases = []
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


def ref_exact_min_cover(instance):
    """The exact cover search that forbids no sibling: branch on the
    uncovered element in the fewest sets, try each of its sets in order of
    residual coverage, prune on the larger of ceil(uncovered/delta) and a
    packing of elements no two of which share a set, and memoize the fewest
    sets that reached each covered mask.  Its upper bound is its own greedy
    pass over the set bitmasks, so it shares no code with the oracle."""
    set_rows, element_rows = csr_rows(instance.set_csr), csr_rows(instance.element_csr)
    if not element_rows:
        return 0
    masks = [sum(1 << t for t in row) for row in set_rows]
    reach = [0] * len(element_rows)
    for t, row in enumerate(element_rows):
        for s in row:
            reach[t] |= masks[s]
    full = (1 << len(element_rows)) - 1
    delta = max(max(map(len, set_rows)), 1)
    # upper bound: repeatedly take a set covering the most uncovered elements
    best, covered = 0, 0
    while covered != full:
        covered |= max(masks, key=lambda m: (m & ~covered).bit_count())
        best += 1
    fewest = {}

    def descend(covered, count):
        nonlocal best
        if covered == full:
            best = min(best, count)
            return
        if fewest.get(covered, count + 1) <= count:
            return
        fewest[covered] = count
        uncovered = full & ~covered
        packing = 0
        rem = uncovered
        while rem:
            packing += 1
            rem &= ~reach[(rem & -rem).bit_length() - 1]
        if count + max(packing, -(-uncovered.bit_count() // delta)) >= best:
            return
        pick = None
        rem = uncovered
        while rem:
            t = (rem & -rem).bit_length() - 1
            rem &= rem - 1
            if pick is None or len(element_rows[t]) < len(pick):
                pick = element_rows[t]
        for s in sorted(pick, key=lambda s: -(masks[s] & uncovered).bit_count()):
            descend(covered | masks[s], count + 1)

    descend(0, 0)
    return best
