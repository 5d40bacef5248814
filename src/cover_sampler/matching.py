"""Hypergraph matching via the rising sampling schedule.

Each edge draws its sampling step upfront from the schedule's first-sample
distribution (an edge is sampled at most once, so the upfront draw preserves
the step-by-step law exactly).  Sweeping steps from the top, still-intact
edges sampled at a step are collected and their endpoints removed; edges
adjacent to another collected edge are dropped at the end.  Conflicts between
collected edges can only arise within a single step: an edge is tested against
the deaths of earlier steps only, because a step's deaths are recorded after
all its edges are tested.

The sweep follows the form of the step draw (`schedule.step_groups`).  A
small, dict-grouped one is swept from Python over the edge rows, with dead
vertices in a set.  A sorted one, a `StepPartition`, is swept as arrays: one
gather of every edge's vertex ids in draw order, then per step one slice of
it, a dead-vertex test reduced per edge and the marking of the collected
edges' vertices; one ``bincount`` over the collected edges' vertices finds
the conflicts.  Its dead-vertex array is sized by the vertex ids present, ranked among
themselves when the header names more vertices than there are incidences, so
on either path memory follows the edges, not the vertex count.  Both paths
collect the same edges.  Every edge is tested once, so ``edge_touches`` is
the incidence count; ``element_touches`` counts the collected edges'
vertices.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .cover import CostCounters, _gather
from .errors import InvalidConfig
from .instance import Hypergraph
from .schedule import StepPartition, compute_b, schedule_for_max_size, step_groups


@dataclass(frozen=True)
class Matching:
    """Pairwise vertex-disjoint edge ids, sorted."""

    edge_ids: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.edge_ids)


def hypergraph_matching(hg: Hypergraph, eps: float,
                        rng: np.random.Generator) -> tuple[Matching, CostCounters]:
    compute_b(eps)  # rejects a bad eps even when there is no work
    num_edges = hg.num_edges
    if num_edges == 0:
        return Matching(()), CostCounters()
    sched = schedule_for_max_size(hg.max_vertex_degree(), eps)
    groups = step_groups(sched, rng, num_edges)
    if isinstance(groups, StepPartition):
        kept, touches = _array_sweep(hg, groups)
    else:
        kept, touches = _set_sweep(hg.edges, groups)
    counters = CostCounters(element_touches=touches, edge_touches=hg.edge_csr[1].size,
                            steps_executed=len(groups))
    return Matching(tuple(kept)), counters


def _set_sweep(edges, groups: list[tuple[int, list[int]]]) -> tuple[list[int], int]:
    """The kept edge ids ascending, and the collected edges' vertex count,
    swept from Python over the tuple rows."""
    dead: set[int] = set()
    collected: list[int] = []
    for _, group in groups:
        batch = [e for e in group if dead.isdisjoint(edges[e])]
        collected.extend(batch)
        for e in batch:
            dead.update(edges[e])
    vertex_use = Counter(v for e in collected for v in edges[e])
    kept = [e for e in collected if all(vertex_use[v] == 1 for v in edges[e])]
    return sorted(kept), vertex_use.total()


def _array_sweep(hg: Hypergraph, partition: StepPartition) -> tuple[list[int], int]:
    """`_set_sweep` over a sorted partition, as one array pass."""
    order, bounds = partition.order, partition.bounds
    indptr, vertices = hg.edge_csr
    flat = _gather(hg.edge_csr, order)
    if hg.num_vertices > vertices.size:
        # ranks among the vertices present, so no array is sized by the header
        flat = np.unique(flat, return_inverse=True)[1]
    sizes = np.diff(indptr)
    lengths = sizes[order]
    # edge t of the order starts at flat[edge_at[t]], and at local[t] in
    # its step's slice
    edge_at = np.concatenate(([0], np.cumsum(lengths)))
    group_at = edge_at[bounds]
    local = edge_at[:-1] - np.repeat(group_at[:-1], np.diff(bounds))
    group_at = group_at.tolist()
    dead = np.zeros(int(flat.max()) + 1, dtype=bool)
    batches, batch_vertices = [], []
    for a, b, lo, hi in zip(bounds, bounds[1:], group_at, group_at[1:]):
        seg = flat[lo:hi]
        blocked = np.logical_or.reduceat(dead[seg], local[a:b])
        batch = order[a:b]
        if blocked.any():
            intact = ~blocked
            batch = batch[intact]
            seg = seg[np.repeat(intact, lengths[a:b])]
        batches.append(batch)
        batch_vertices.append(seg)
        dead[seg] = True
    # the first step collects its edges, so neither list is empty
    collected, used = np.concatenate(batches), np.concatenate(batch_vertices)
    shared = np.bincount(used)[used] > 1
    collected_sizes = sizes[collected]
    clash = np.logical_or.reduceat(shared, np.cumsum(collected_sizes) - collected_sizes)
    return np.sort(collected[~clash]).tolist(), used.size


def verify_matching(hg: Hypergraph, matching: Matching) -> tuple[bool, int | None]:
    """True when no vertex appears in two chosen edges; otherwise False plus
    the lowest conflicting vertex id.  Reads only the chosen edges' rows."""
    ids, num_edges = matching.edge_ids, hg.num_edges
    for e in ids:
        if not (0 <= e < num_edges):
            raise InvalidConfig(f"edge id {e} out of range")
    used = np.sort(_gather(hg.edge_csr, np.array(ids, dtype=np.int64)))
    repeated = used[1:][used[1:] == used[:-1]]
    return (True, None) if repeated.size == 0 else (False, int(repeated[0]))
