"""Hypergraph matching via the rising sampling schedule.

Each edge draws its sampling step upfront from the schedule's first-sample
distribution (an edge is sampled at most once, so the upfront draw preserves
the step-by-step law exactly).  Sweeping steps from the top, still-intact
edges sampled at a step are collected and their endpoints removed; edges
adjacent to another collected edge are dropped at the end.  Conflicts between
collected edges can only arise within a single step: an edge is tested against
the deaths of earlier steps only, because a step's deaths are recorded after
all its edges are tested.

Dead vertices are kept in a set, so memory follows the edges, not the vertex
count.  Every edge is tested once, so ``edge_touches`` is the incidence count;
``element_touches`` counts the collected edges' vertices.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .cover import CostCounters
from .errors import InvalidConfig
from .instance import Hypergraph
from .schedule import compute_b, schedule_for_max_size, step_groups


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

    edges = hg.edges
    dead: set[int] = set()
    collected: list[int] = []
    groups = step_groups(sched, rng, num_edges)
    for _, group in groups:
        batch = [e for e in group if dead.isdisjoint(edges[e])]
        collected.extend(batch)
        for e in batch:
            dead.update(edges[e])

    vertex_use = Counter(v for e in collected for v in edges[e])
    kept = [e for e in collected if all(vertex_use[v] == 1 for v in edges[e])]
    counters = CostCounters(element_touches=vertex_use.total(),
                            edge_touches=hg.edge_csr[1].size, steps_executed=len(groups))
    return Matching(tuple(sorted(kept))), counters


def verify_matching(hg: Hypergraph, matching: Matching) -> tuple[bool, int | None]:
    """True when no vertex appears in two chosen edges; otherwise False plus
    the lowest conflicting vertex id."""
    use = Counter()
    for e in matching.edge_ids:
        if not (0 <= e < hg.num_edges):
            raise InvalidConfig(f"edge id {e} out of range")
        for v in hg.edges[e]:
            use[v] += 1
    conflicts = sorted(v for v, n in use.items() if n > 1)
    if conflicts:
        return False, conflicts[0]
    return True, None
