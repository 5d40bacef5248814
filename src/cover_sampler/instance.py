"""Data model for set-cover instances and hypergraphs: parsing, generation,
serialization and the conversion between the two views.

Text formats (line based, 0-based ids, ``c`` lines are comments):

* set cover:   ``p sc <num_sets> <num_elements> <num_edges>`` followed by
  ``<num_edges>`` lines ``e <set_id> <element_id>``.
* hypergraph:  ``p hg <num_vertices> <num_edges>`` followed by one line per
  edge listing its vertex ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import EmptyEdge, InfeasibleInstance, ParseError
from .util import derive_rng


@dataclass(frozen=True)
class SetCoverInstance:
    """Immutable bipartite incidence structure between sets and elements.

    ``delta`` is the largest set size, ``freq`` the largest number of sets any
    single element belongs to, and ``m`` the total number of incidences.
    """

    num_sets: int
    num_elements: int
    set_neighbors: tuple[tuple[int, ...], ...]
    element_neighbors: tuple[tuple[int, ...], ...]
    delta: int
    freq: int
    m: int

    @classmethod
    def from_edges(cls, num_sets: int, num_elements: int,
                   edges: Iterable[tuple[int, int]]) -> "SetCoverInstance":
        if num_sets < 0 or num_elements < 0:
            raise ParseError("negative size in header")
        set_adj: list[list[int]] = [[] for _ in range(num_sets)]
        elem_adj: list[list[int]] = [[] for _ in range(num_elements)]
        seen: set[tuple[int, int]] = set()
        for s, t in edges:
            if not (0 <= s < num_sets):
                raise ParseError(f"set id {s} out of range [0, {num_sets})")
            if not (0 <= t < num_elements):
                raise ParseError(f"element id {t} out of range [0, {num_elements})")
            if (s, t) in seen:
                raise ParseError(f"duplicate edge ({s}, {t})")
            seen.add((s, t))
            set_adj[s].append(t)
            elem_adj[t].append(s)
        for t, adj in enumerate(elem_adj):
            if not adj:
                raise InfeasibleInstance(
                    f"element id {t} has degree 0; no cover can include it")
        set_neighbors = tuple(tuple(sorted(adj)) for adj in set_adj)
        element_neighbors = tuple(tuple(sorted(adj)) for adj in elem_adj)
        delta = max((len(a) for a in set_neighbors), default=0)
        freq = max((len(a) for a in element_neighbors), default=0)
        return cls(num_sets=num_sets, num_elements=num_elements,
                   set_neighbors=set_neighbors, element_neighbors=element_neighbors,
                   delta=delta, freq=freq, m=len(seen))


@dataclass(frozen=True)
class Hypergraph:
    """Vertex set plus a list of hyperedges (sorted, duplicate-free id tuples).

    ``rank`` is the largest edge size; ``avg_rank`` the mean edge size
    (0 when there are no edges).
    """

    num_vertices: int
    edges: tuple[tuple[int, ...], ...]
    rank: int
    avg_rank: float

    @classmethod
    def from_edges(cls, num_vertices: int,
                   edges: Iterable[Iterable[int]]) -> "Hypergraph":
        if num_vertices < 0:
            raise ParseError("negative vertex count")
        normalized: list[tuple[int, ...]] = []
        for raw in edges:
            vs = list(raw)
            if not vs:
                raise EmptyEdge("hyperedge with no vertices")
            if len(set(vs)) != len(vs):
                raise ParseError(f"duplicate vertex within edge {vs}")
            for v in vs:
                if not (0 <= v < num_vertices):
                    raise ParseError(f"vertex id {v} out of range [0, {num_vertices})")
            normalized.append(tuple(sorted(vs)))
        rank = max((len(e) for e in normalized), default=0)
        avg = (sum(len(e) for e in normalized) / len(normalized)) if normalized else 0.0
        return cls(num_vertices=num_vertices, edges=tuple(normalized),
                   rank=rank, avg_rank=avg)

    def max_vertex_degree(self) -> int:
        deg = [0] * self.num_vertices
        for e in self.edges:
            for v in e:
                deg[v] += 1
        return max(deg, default=0)


def _content_lines(text) -> list[str]:
    if isinstance(text, str):
        raw = text.splitlines()
    else:
        raw = [str(line) for line in text]
    return [line.rstrip("\n") for line in raw if not line.lstrip().startswith("c")]


def parse_instance(text) -> SetCoverInstance:
    """Parse the ``p sc`` format from a string or an iterable of lines."""
    lines = [ln for ln in _content_lines(text) if ln.strip()]
    if not lines:
        raise ParseError("empty input")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "p" or header[1] != "sc":
        raise ParseError(f"bad header {lines[0]!r}; expected 'p sc S T M'")
    try:
        num_sets, num_elements, num_edges = (int(x) for x in header[2:])
    except ValueError as exc:
        raise ParseError(f"non-integer header field in {lines[0]!r}") from exc
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] != "e" or len(parts) != 3:
            raise ParseError(f"bad edge line {ln!r}; expected 'e <set> <element>'")
        try:
            edges.append((int(parts[1]), int(parts[2])))
        except ValueError as exc:
            raise ParseError(f"non-integer id in {ln!r}") from exc
    if len(edges) != num_edges:
        raise ParseError(f"header promises {num_edges} edges, found {len(edges)}")
    # checked before from_edges allocates one list per header element
    if num_elements > num_edges:
        raise InfeasibleInstance(f"{num_elements} elements but {num_edges} edges, "
                                 "so some element has degree 0")
    return SetCoverInstance.from_edges(num_sets, num_elements, edges)


def serialize_instance(instance: SetCoverInstance) -> str:
    out = [f"p sc {instance.num_sets} {instance.num_elements} {instance.m}"]
    for s, neighbors in enumerate(instance.set_neighbors):
        for t in neighbors:
            out.append(f"e {s} {t}")
    return "\n".join(out) + "\n"


def parse_hypergraph(text) -> Hypergraph:
    """Parse the ``p hg`` format.  A blank line in the edge section is an
    empty edge and is rejected."""
    lines = _content_lines(text)
    while lines and not lines[0].strip():
        lines.pop(0)
    if not lines:
        raise ParseError("empty input")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "p" or header[1] != "hg":
        raise ParseError(f"bad header {lines[0]!r}; expected 'p hg V E'")
    try:
        num_vertices, num_edges = int(header[2]), int(header[3])
    except ValueError as exc:
        raise ParseError(f"non-integer header field in {lines[0]!r}") from exc
    body = lines[1:]
    if len(body) < num_edges:
        raise ParseError(f"header promises {num_edges} edge lines, found {len(body)}")
    if any(ln.strip() for ln in body[num_edges:]):
        raise ParseError(f"unexpected content after {num_edges} edge lines")
    edges = []
    for ln in body[:num_edges]:
        parts = ln.split()
        if not parts:
            raise EmptyEdge("blank line where an edge was expected")
        try:
            edges.append([int(x) for x in parts])
        except ValueError as exc:
            raise ParseError(f"non-integer vertex id in {ln!r}") from exc
    return Hypergraph.from_edges(num_vertices, edges)


def serialize_hypergraph(hg: Hypergraph) -> str:
    out = [f"p hg {hg.num_vertices} {len(hg.edges)}"]
    for e in hg.edges:
        out.append(" ".join(str(v) for v in e))
    return "\n".join(out) + "\n"


def generate_random_instance(num_sets: int, num_elements: int,
                             element_degree: int, seed: int) -> SetCoverInstance:
    """Random instance where every element lands in exactly ``element_degree``
    distinct uniformly chosen sets, so freq == element_degree."""
    if element_degree < 1:
        raise ValueError("element_degree must be at least 1")
    if element_degree > num_sets:
        raise ValueError(
            f"element_degree {element_degree} exceeds num_sets {num_sets}")
    rng = derive_rng(seed)
    edges = []
    for t in range(num_elements):
        for s in rng.choice(num_sets, size=element_degree, replace=False):
            edges.append((int(s), t))
    return SetCoverInstance.from_edges(num_sets, num_elements, edges)


def generate_random_hypergraph(num_vertices: int, num_edges: int, rank: int,
                               seed: int, min_size: int | None = None) -> Hypergraph:
    """Random hypergraph with distinct edges of size in [min_size, rank]
    (exactly ``rank`` by default)."""
    if rank < 1 or rank > num_vertices:
        raise ValueError("need 1 <= rank <= num_vertices")
    lo = rank if min_size is None else min_size
    if not (1 <= lo <= rank):
        raise ValueError("need 1 <= min_size <= rank")
    rng = derive_rng(seed)
    edges: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    attempts = 0
    while len(edges) < num_edges:
        attempts += 1
        if attempts > 1000 * num_edges:
            raise ValueError("could not generate enough distinct edges")
        size = int(rng.integers(lo, rank + 1))
        e = tuple(sorted(int(v) for v in rng.choice(num_vertices, size=size, replace=False)))
        if e in seen:
            continue
        seen.add(e)
        edges.append(e)
    return Hypergraph.from_edges(num_vertices, edges)


def to_hypergraph(instance: SetCoverInstance) -> Hypergraph:
    """Dual view: sets become vertices and each element becomes the hyperedge
    of the sets containing it, so the rank equals the instance frequency."""
    return Hypergraph.from_edges(instance.num_sets, instance.element_neighbors)
