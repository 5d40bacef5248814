"""Data model for set-cover instances and hypergraphs: parsing, generation,
serialization and the conversion between the two views.

Text formats (line based, 0-based ids, ``c`` lines are comments):

* set cover:   ``p sc <num_sets> <num_elements> <num_edges>`` followed by
  ``<num_edges>`` lines ``e <set_id> <element_id>``.
* hypergraph:  ``p hg <num_vertices> <num_edges>`` followed by one line per
  edge listing its vertex ids.

``parse_instance`` and ``parse_hypergraph`` read one format each;
``parse_text`` reads either, chosen by the kind its header names.  A text in
exactly the layout the serializers write is read as bytes with numpy; any
other goes to the line reader, a plain loop that checks and converts each
line in one pass.  Both readers hand the same id columns to the same header,
count and build checks, so the result or error does not depend on the
reader.

Both builders check and sort whole id columns with numpy and store each side
only as read-only CSR arrays (``indptr``/``indices``), the layout the numpy
paths of the solvers, the serializers and the sparsification counts read.
Each set-cover side has one tuple-row reader, a `RowCache`, which cuts a row
from the arrays on its first read and keeps it; the solvers, the verifier,
the phase simulator and the exact oracles all read it, so a row is cut at
most once.  The exact oracles and greedy, which read a whole side, cut it
with `RowCache.cut_all` in one pass.  A hypergraph's ``edges`` is a whole
view, cut with one ``tolist()`` on first read and cached; only matching's
small path reads it.  Every array indexed by vertex is sized by its cached
``vertex_index``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyEdge, InfeasibleInstance, InvalidConfig, ParseError
from .util import derive_rng

_INT64_MAX = np.iinfo(np.int64).max
_INT32_MAX = np.iinfo(np.int32).max
# the most sets an instance may have beyond its edge count (all but the
# edge count of them empty), so no set count sizes memory far beyond the input
MAX_EMPTY_SETS = 2 ** 20


class _ByValue:
    """``==`` and ``hash`` over every dataclass field, a CSR ``(indptr,
    indices)`` pair by its values whatever its dtype."""

    def _key(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(all(map(np.array_equal, a, b)) if isinstance(a, tuple) else a == b
                   for a, b in zip(self._key(), other._key()))

    def __hash__(self) -> int:
        return hash(tuple(tuple(x.astype(np.int64, copy=False).tobytes() for x in v)
                          if isinstance(v, tuple) else v for v in self._key()))


@dataclass(frozen=True, eq=False)
class SetCoverInstance(_ByValue):
    """Immutable bipartite incidence structure between sets and elements.

    ``delta`` is the largest set size, ``freq`` the largest number of sets any
    single element belongs to, and ``m`` the total number of incidences.
    ``set_csr`` and ``element_csr`` hold the rows as read-only
    ``(indptr, indices)`` arrays: row ``s`` of the set side is
    ``indices[indptr[s]:indptr[s + 1]]``.  They are the only stored layout,
    and ``==`` and ``hash`` compare them by value.  ``set_rows`` and
    ``element_rows`` are the same rows as tuples: `RowCache` mappings that
    cut and cache one row at a time.
    """

    num_sets: int
    num_elements: int
    delta: int
    freq: int
    m: int
    set_csr: tuple[np.ndarray, np.ndarray] = field(repr=False)
    element_csr: tuple[np.ndarray, np.ndarray] = field(repr=False)

    @cached_property
    def set_rows(self) -> "RowCache":
        """Row ``s`` of the set side, cut on its first read."""
        return RowCache(self.set_csr)

    @cached_property
    def element_rows(self) -> "RowCache":
        """Row ``t`` of the element side, cut on its first read."""
        return RowCache(self.element_csr)

    @classmethod
    def from_edges(cls, num_sets: int, num_elements: int,
                   edges: Iterable[Sequence[int]]) -> "SetCoverInstance":
        """Instance from (set id, element id) pairs.  More elements than
        pairs raise `InfeasibleInstance`; a negative or oversized count, or
        more than `MAX_EMPTY_SETS` sets beyond the pair count, raises
        `ParseError`.  Then the first pair in input order that is out of
        range or repeats an earlier pair raises `ParseError`, as does a
        non-integer id; then the lowest element of degree 0 raises
        `InfeasibleInstance`."""
        edges = list(edges)
        if set(map(len, edges)) - {2}:
            raise InvalidConfig("edges must be (set id, element id) pairs")
        ids = _id_array(list(chain.from_iterable(edges)))
        return _build_instance(num_sets, num_elements, ids[0::2], ids[1::2],
                               edges.__getitem__)


def _csr_arrays(lengths, column: np.ndarray,
                id_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(indptr, indices)`` of rows with the given lengths, laid
    end to end in ``column`` (ids in [0, id_count)); int32 when every id and
    offset fits."""
    dtype = np.int32 if max(id_count, column.size) <= _INT32_MAX else np.int64
    indptr = np.zeros(len(lengths) + 1, dtype=dtype)
    np.add.accumulate(lengths, out=indptr[1:])
    indices = column.astype(dtype)
    indptr.setflags(write=False)
    indices.setflags(write=False)
    return indptr, indices


def _build_instance(num_sets: int, num_elements: int, sets: np.ndarray,
                    elems: np.ndarray, edge_at) -> SetCoverInstance:
    """Instance from parallel int64 id columns; ``edge_at(i)`` returns edge
    ``i`` as given, for error messages.  The header counts are checked
    against the edge count before any array is sized by them."""
    m = int(sets.size)
    if num_elements > m:
        raise InfeasibleInstance(f"{num_elements} elements but {m} edges, "
                                 "so some element has degree 0")
    if num_sets < 0 or num_elements < 0:
        raise ParseError("negative size in header")
    if max(num_sets, num_elements) > _INT64_MAX:
        raise ParseError("size beyond int64")
    if num_sets > m + MAX_EMPTY_SETS:
        raise ParseError(f"{num_sets} sets but {m} edges; at most {MAX_EMPTY_SETS} "
                         "sets beyond the edge count are allowed")
    bad = (sets < 0) | (sets >= num_sets) | (elems < 0) | (elems >= num_elements)
    if bad.any():
        _raise_first_bad_edge(num_sets, num_elements, edge_at, m)
    # sorted by (set, element), a repeated edge sits next to its copy
    order = _pair_order(sets, elems, num_sets, num_elements)
    by_set, elems_by_set = sets[order], elems[order]
    if ((by_set[1:] == by_set[:-1]) & (elems_by_set[1:] == elems_by_set[:-1])).any():
        _raise_first_bad_edge(num_sets, num_elements, edge_at, m)
    elem_degree = np.bincount(elems, minlength=num_elements)
    if not elem_degree.all():
        raise InfeasibleInstance(f"element id {elem_degree.argmin()} has degree 0; "
                                 "no cover can include it")
    set_degree = np.bincount(sets, minlength=num_sets)
    by_elem = _pair_order(elems, sets, num_elements, num_sets)
    return SetCoverInstance(
        num_sets=num_sets, num_elements=num_elements,
        delta=int(set_degree.max(initial=0)), freq=int(elem_degree.max(initial=0)),
        m=m, set_csr=_csr_arrays(set_degree, elems_by_set, num_elements),
        element_csr=_csr_arrays(elem_degree, sets[by_elem], num_sets))


def _raise_first_bad_edge(num_sets: int, num_elements: int, edge_at,
                          count: int) -> None:
    """Raise for the first edge, in input order, that is out of range or
    repeats an earlier one."""
    seen = set()
    for i in range(count):
        s, t = edge_at(i)
        if not (0 <= s < num_sets):
            raise ParseError(f"set id {s} out of range [0, {num_sets})")
        if not (0 <= t < num_elements):
            raise ParseError(f"element id {t} out of range [0, {num_elements})")
        if (s, t) in seen:
            raise ParseError(f"duplicate edge ({s}, {t})")
        seen.add((s, t))


def _pair_order(major: np.ndarray, minor: np.ndarray, major_count: int,
                minor_count: int) -> np.ndarray:
    """Indices that sort id pairs in [0, major_count) x [0, minor_count) by
    (major, minor)."""
    if major_count * minor_count > _INT64_MAX:
        return np.lexsort((minor, major))
    return np.argsort(major * minor_count + minor)


class RowCache(dict):
    """The rows of one CSR side by row id, each cut from the arrays as a
    tuple on its first read and kept: a miss is one ``__missing__`` call, a
    hit one dict lookup with no Python call.  Any integer id works, a numpy
    one included."""

    __slots__ = ("indptr", "indices")

    def __init__(self, csr: tuple[np.ndarray, np.ndarray]):
        super().__init__()
        self.indptr, self.indices = csr

    def __missing__(self, i) -> tuple[int, ...]:
        row = self[i] = tuple(self.indices[self.indptr[i]:self.indptr[i + 1]].tolist())
        return row

    def cut_all(self) -> list[tuple[int, ...]]:
        """Every row, in id order, for a reader of the whole side.  Rows
        not yet held are cut from one ``tolist()`` of each array rather than
        one miss per row, and kept; a row already held stays the same
        tuple."""
        n = len(self.indptr) - 1
        if len(self) < n:
            flat, bounds = self.indices.tolist(), self.indptr.tolist()
            for i, a, b in zip(range(n), bounds, bounds[1:]):
                if i not in self:
                    self[i] = tuple(flat[a:b])
        return [self[i] for i in range(n)]


def _clamp(value: int) -> int:
    # an id outside int64 is outside every range; -1 keeps it so
    return value if -_INT64_MAX - 1 <= value <= _INT64_MAX else -1


def _id_array(values: list) -> np.ndarray:
    """int64 array of integer ids; raises `ParseError` for any other value,
    so a float is never truncated."""
    arr = np.array(values)
    if arr.dtype.kind in "ib":
        return arr.astype(np.int64, copy=False)
    for v in values:
        if not isinstance(v, numbers.Integral):
            raise ParseError(f"non-integer id {v!r}")
    return np.array([_clamp(int(v)) for v in values], dtype=np.int64)


@dataclass(frozen=True, eq=False)
class Hypergraph(_ByValue):
    """Vertex set plus a list of hyperedges (sorted, duplicate-free id rows).

    ``rank`` is the largest edge size; ``avg_rank`` the mean edge size
    (0 when there are no edges).  ``edge_csr`` holds the edges as read-only
    ``(indptr, indices)`` arrays, the only stored layout, which ``==`` and
    ``hash`` compare by value; ``edges`` is the same rows as tuples, cut from
    the arrays on first read and cached.
    """

    num_vertices: int
    rank: int
    avg_rank: float
    edge_csr: tuple[np.ndarray, np.ndarray] = field(repr=False)

    @cached_property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        """Row ``e``: the vertices of edge ``e``, ascending."""
        flat, bounds = tuple(self.edge_csr[1].tolist()), self.edge_csr[0].tolist()
        return tuple(flat[a:b] for a, b in zip(bounds, bounds[1:]))

    @property
    def num_edges(self) -> int:
        return len(self.edge_csr[0]) - 1

    @classmethod
    def from_edges(cls, num_vertices: int,
                   edges: Iterable[Sequence[int]]) -> "Hypergraph":
        """Hypergraph from vertex-id sequences.  The first edge in input order
        that is empty, repeats a vertex or holds an out-of-range vertex raises
        (`EmptyEdge` or `ParseError`), as does a non-integer id."""
        edges = list(edges)
        ids = _id_array(list(chain.from_iterable(edges)))
        sizes = np.array([len(e) for e in edges], dtype=np.int64)
        return _build_hypergraph(num_vertices, ids, sizes, edges.__getitem__)

    @cached_property
    def vertex_index(self) -> np.ndarray:
        """Per incidence, its vertex id when the header is at most the
        incidence count, else the vertex's rank among those present: either
        way below min(num_vertices, incidences), so memory follows the edges."""
        vertices = self.edge_csr[1]
        if self.num_vertices <= vertices.size:
            return vertices
        return np.unique(vertices, return_inverse=True)[1]

    def max_vertex_degree(self) -> int:
        """Largest vertex degree, counted in O(incidences) memory."""
        return int(np.bincount(self.vertex_index).max(initial=0))


def _build_hypergraph(num_vertices: int, ids: np.ndarray, sizes: np.ndarray,
                      edge_at) -> Hypergraph:
    """Hypergraph from the concatenated vertex ids of edges with the given
    sizes; ``edge_at(i)`` returns edge ``i`` as given, for error messages."""
    if num_vertices < 0:
        raise ParseError("negative vertex count")
    if num_vertices > _INT64_MAX:
        raise ParseError("vertex count beyond int64")
    edge_of = np.repeat(np.arange(len(sizes)), sizes)
    if not sizes.all() or ((ids < 0) | (ids >= num_vertices)).any():
        _raise_first_bad_hyperedge(num_vertices, edge_at, len(sizes))
    # sorting within each edge keeps the edges in place and puts a repeated
    # vertex next to its copy
    ids = ids[_pair_order(edge_of, ids, len(sizes), num_vertices)]
    if ((ids[1:] == ids[:-1]) & (edge_of[1:] == edge_of[:-1])).any():
        _raise_first_bad_hyperedge(num_vertices, edge_at, len(sizes))
    return Hypergraph(num_vertices=num_vertices, rank=int(sizes.max(initial=0)),
                      avg_rank=ids.size / len(sizes) if len(sizes) else 0.0,
                      edge_csr=_csr_arrays(sizes, ids, num_vertices))


def _raise_first_bad_hyperedge(num_vertices: int, edge_at, count: int) -> None:
    """Raise for the first edge, in input order, that is empty, repeats a
    vertex or holds an out-of-range vertex."""
    for i in range(count):
        vs = list(edge_at(i))
        if not vs:
            raise EmptyEdge("hyperedge with no vertices")
        if len(set(vs)) != len(vs):
            raise ParseError(f"duplicate vertex within edge {vs}")
        for v in vs:
            if not (0 <= v < num_vertices):
                raise ParseError(f"vertex id {v} out of range [0, {num_vertices})")


# the header of each text format, by the kind it names
_GRAMMARS = {"sc": "p sc S T M", "hg": "p hg V E"}
# the bytes that close the three tokens of an ``e <set> <element>`` line
_SC_CLOSERS = np.array([ord(" "), ord(" "), ord("\n")], dtype=np.uint8)
# the letters a serializer writes, read as spaces by the id conversion
_LETTERS_AS_SPACES = bytes.maketrans(b"pschge", b"      ")
# every id of at most this many digits fits int64
_MAX_ID_DIGITS = 18


def parse_text(text: str) -> SetCoverInstance | Hypergraph:
    """Parse either format, chosen by the kind its header names."""
    return _parse(text, ("sc", "hg"))


def parse_instance(text: str) -> SetCoverInstance:
    """Parse the ``p sc`` format."""
    return _parse(text, ("sc",))


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the ``p hg`` format.  A blank line in the edge section is an
    empty edge and is rejected."""
    return _parse(text, ("hg",))


def _parse(text: str, kinds: tuple[str, ...]) -> SetCoverInstance | Hypergraph:
    """Parse ``text`` in the format of one of ``kinds``.  A text laid out
    exactly as a serializer writes it is read as bytes, any other by lines;
    both readers hand the same id columns to the same checks, so the result
    or error does not depend on the reader."""
    kind, fields, columns = _read_layout(text, kinds) or _read_lines(text, kinds)
    if kind == "hg":
        return _build_hypergraph(fields[0], *columns)
    num_sets, num_elements, num_edges = fields
    sets, elems, edge_at = columns
    if sets.size != num_edges:
        raise ParseError(f"header promises {num_edges} edges, found {sets.size}")
    return _build_instance(num_sets, num_elements, sets, elems, edge_at)


def _header_fields(header_line: str, kinds: tuple[str, ...]) -> tuple[str, list[int]]:
    """The kind and integer fields of ``header_line``, which must follow the
    header grammar of one of ``kinds``."""
    if not header_line:
        raise ParseError("empty input")
    header = header_line.split()
    kind = next((k for k in kinds if header[:2] == ["p", k]), None)
    if kind is None or len(header) != len(_GRAMMARS[kind].split()):
        grammars = [_GRAMMARS[kind]] if kind else map(_GRAMMARS.get, kinds)
        raise ParseError(f"bad header {header_line!r}; expected "
                         + " or ".join(map(repr, grammars)))
    try:
        return kind, [int(x) for x in header[2:]]
    except ValueError as exc:
        raise ParseError(f"non-integer header field in {header_line!r}") from exc


def _read_layout(text: str, kinds: tuple[str, ...]):
    """(kind, header fields, id columns) of a text in exactly the layout the
    serializers write, else None; it never raises.  The header is the first
    line, with single spaces; each later line is ``e <id> <id>`` (``p sc``)
    or ids (``p hg``), every token closed by one space or newline and every
    id of at most 18 digits; for ``p hg`` one line per promised edge.  The
    final newline may be missing.  All ids are converted in one numpy call."""
    if not text.isascii():
        return None
    data = text.encode("ascii")
    if not data.endswith(b"\n"):
        data += b"\n"
    head_end = data.index(b"\n")
    header = data[:head_end].split(b" ")
    kind = header[1].decode() if len(header) > 1 else None
    if (header[0] != b"p" or kind not in kinds
            or len(header) != len(_GRAMMARS[kind].split())
            or not all(map(bytes.isdigit, header[2:]))):
        return None
    _, fields = _header_fields(data[:head_end].decode(), kinds)
    letters = data.translate(None, b"0123456789 \n")
    # from the header's newline on, each token ends at the next space or
    # newline; gaps are the token lengths plus one, and the newlines among
    # the closers are the edge bounds in token index
    view = np.frombuffer(data, np.uint8)[head_end:]
    cuts = (view < ord("0")).nonzero()[0]
    gaps = cuts[1:] - cuts[:-1]
    closers = view[cuts]
    if kind == "sc":
        lines = gaps.size // 3
        # every line is an e and two tokens, and the only letters are the
        # header's and one e per line, so every id is digits
        if (gaps.size != 3 * lines or letters != b"psc" + b"e" * lines
                or not (closers[1:].reshape(-1, 3) == _SC_CLOSERS).all()
                or not (gaps[0::3] == 2).all()
                or not (view[cuts[1::3] - 1] == ord("e")).all()):
            return None
    else:
        bounds = (closers == ord("\n")).nonzero()[0]
        if letters != b"phg" or bounds.size - 1 != fields[1]:
            return None
    if np.minimum.reduce(gaps, initial=2) < 2 or np.maximum.reduce(
            gaps, initial=2) > _MAX_ID_DIGITS + 1:
        return None
    ids = np.fromstring(data.translate(_LETTERS_AS_SPACES), dtype=np.int64,
                        sep=" ")[len(fields):]
    if kind == "sc":
        sets, elems = ids.reshape(-1, 2).T.copy()   # two contiguous columns
        return kind, fields, (sets, elems, lambda i: (int(sets[i]), int(elems[i])))
    return kind, fields, (ids, bounds[1:] - bounds[:-1],
                          lambda i: ids[bounds[i]:bounds[i + 1]].tolist())


def _read_lines(text: str, kinds: tuple[str, ...]):
    """(kind, header fields, id columns) of any text the formats allow:
    comment and blank lines, any whitespace, any integer ``int()`` reads.
    One pass over the lines checks and converts each; raises for a bad
    header or edge section."""
    lines = iter(text.splitlines())
    # the header is the first line that is neither blank nor a comment
    header_line = next((line for line in lines if line.lstrip()[:1] not in ("", "c")), "")
    kind, fields = _header_fields(header_line, kinds)
    if kind == "sc":
        sets, elems = [], []
        for line in lines:
            parts = line.split()
            if not parts or parts[0][0] == "c":   # a blank or comment line
                continue
            if parts[0] != "e" or len(parts) != 3:
                raise ParseError(f"bad edge line {line!r}; expected 'e <set> <element>'")
            try:
                sets.append(int(parts[1]))
                elems.append(int(parts[2]))
            except ValueError as exc:
                raise ParseError(f"non-integer id in {line!r}") from exc
        return kind, fields, (_id_array(sets), _id_array(elems),
                              lambda i: (sets[i], elems[i]))
    num_edges = fields[1]
    body = [line for line in lines if line.lstrip()[:1] != "c"]
    if not 0 <= num_edges <= len(body):
        raise ParseError(f"header promises {num_edges} edge lines, found {len(body)}")
    if any(line.strip() for line in body[num_edges:]):
        raise ParseError(f"unexpected content after {num_edges} edge lines")
    ids, bounds = [], [0]
    for line in body[:num_edges]:
        parts = line.split()
        if not parts:
            raise EmptyEdge("blank line where an edge was expected")
        try:
            ids.extend(map(int, parts))
        except ValueError as exc:
            raise ParseError(f"non-integer vertex id in {line!r}") from exc
        bounds.append(len(ids))
    return kind, fields, (_id_array(ids), np.diff(bounds),
                          lambda i: ids[bounds[i]:bounds[i + 1]])


def serialize_instance(instance: SetCoverInstance) -> str:
    indptr, elems = instance.set_csr
    sets = np.repeat(np.arange(instance.num_sets), np.diff(indptr))
    out = [f"p sc {instance.num_sets} {instance.num_elements} {instance.m}"]
    out.extend(map("e {} {}".format, sets.tolist(), elems.tolist()))
    return "\n".join(out) + "\n"


def serialize_hypergraph(hg: Hypergraph) -> str:
    indptr, vertices = hg.edge_csr
    ids = list(map(str, vertices.tolist()))
    bounds = indptr.tolist()
    out = [f"p hg {hg.num_vertices} {hg.num_edges}"]
    out.extend(" ".join(ids[a:b]) for a, b in zip(bounds, bounds[1:]))
    return "\n".join(out) + "\n"


def generate_random_instance(num_sets: int, num_elements: int,
                             element_degree: int, seed: int) -> SetCoverInstance:
    """Random instance where every element lands in exactly ``element_degree``
    distinct uniformly chosen sets, so freq == element_degree."""
    if element_degree < 1:
        raise InvalidConfig("element_degree must be at least 1")
    if element_degree > num_sets:
        raise InvalidConfig(
            f"element_degree {element_degree} exceeds num_sets {num_sets}")
    rng = derive_rng(seed)
    sets = np.array([rng.choice(num_sets, size=element_degree, replace=False)
                     for _ in range(num_elements)], dtype=np.int64).reshape(-1)
    elems = np.repeat(np.arange(num_elements), element_degree)
    return _build_instance(num_sets, num_elements, sets, elems,
                           lambda i: (int(sets[i]), int(elems[i])))


def generate_random_hypergraph(num_vertices: int, num_edges: int, rank: int,
                               seed: int, min_size: int | None = None) -> Hypergraph:
    """Random hypergraph with distinct edges of size in [min_size, rank]
    (exactly ``rank`` by default)."""
    if rank < 1 or rank > num_vertices:
        raise InvalidConfig("need 1 <= rank <= num_vertices")
    lo = rank if min_size is None else min_size
    if not (1 <= lo <= rank):
        raise InvalidConfig("need 1 <= min_size <= rank")
    rng = derive_rng(seed)
    edges: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    attempts = 0
    while len(edges) < num_edges:
        attempts += 1
        if attempts > 1000 * num_edges:
            raise InvalidConfig("could not generate enough distinct edges")
        size = int(rng.integers(lo, rank + 1))
        e = tuple(sorted(int(v) for v in rng.choice(num_vertices, size=size, replace=False)))
        if e in seen:
            continue
        seen.add(e)
        edges.append(e)
    return Hypergraph.from_edges(num_vertices, edges)


def to_hypergraph(instance: SetCoverInstance) -> Hypergraph:
    """Dual view: sets become vertices and each element becomes the hyperedge
    of the sets containing it, so the rank equals the instance frequency.
    Element rows are already sorted, duplicate-free and in range."""
    return Hypergraph(
        num_vertices=instance.num_sets, rank=instance.freq,
        avg_rank=instance.m / instance.num_elements if instance.num_elements else 0.0,
        edge_csr=instance.element_csr)
