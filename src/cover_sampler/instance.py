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
other goes to the line reader.  Both readers hand the same id columns to the
same header, count and build checks.

Both builders check and sort whole id columns with numpy and store each side
only as read-only CSR arrays (``indptr``/``indices``), the layout the numpy
paths of the solvers, the serializers and the sparsification counts read.
The tuple rows the small-batch Python paths walk are a view, cut from the
arrays on first read (one ``tolist()`` per side) and cached on the object.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyEdge, InfeasibleInstance, ParseError
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
    and ``==`` and ``hash`` compare them by value.  ``set_neighbors`` and
    ``element_neighbors`` are the same rows as tuples, cut from the arrays on
    first read and cached.
    """

    num_sets: int
    num_elements: int
    delta: int
    freq: int
    m: int
    set_csr: tuple[np.ndarray, np.ndarray] = field(repr=False)
    element_csr: tuple[np.ndarray, np.ndarray] = field(repr=False)

    @cached_property
    def set_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Row ``s``: the elements of set ``s``, ascending."""
        return _rows(self.set_csr[1].tolist(), self.set_csr[0])

    @cached_property
    def element_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Row ``t``: the sets containing element ``t``, ascending."""
        # one int object per set id, shared by every row that holds it
        shared = np.array(range(self.num_sets), dtype=object)
        return _rows(shared[self.element_csr[1]].tolist(), self.element_csr[0])

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
            raise ValueError("edges must be (set id, element id) pairs")
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


def _rows(flat: list, indptr: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """``flat`` cut into tuples at the CSR offsets ``indptr``."""
    flat_tuple = tuple(flat)
    bounds = indptr.tolist()
    return tuple(flat_tuple[a:b] for a, b in zip(bounds, bounds[1:]))


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


def _text_ids(tokens: list[str]) -> tuple[np.ndarray, bool]:
    """int64 array of the ids ``int()`` reads from ``tokens``, and whether an
    id beyond int64 was stored as -1; raises ValueError for a token that is
    not an integer."""
    try:
        return np.array(tokens, dtype=np.int64), False
    except OverflowError:
        return np.array([_clamp(int(x)) for x in tokens], dtype=np.int64), True


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
        return _rows(self.edge_csr[1].tolist(), self.edge_csr[0])

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

    def max_vertex_degree(self) -> int:
        """Largest vertex degree, counted in O(incidences) memory even when
        the vertex count is far larger."""
        return int(np.unique(self.edge_csr[1], return_counts=True)[1].max(initial=0))


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


def parse_text(text) -> SetCoverInstance | Hypergraph:
    """Parse either format, chosen by the kind its header names."""
    return _parse(text, ("sc", "hg"))


def parse_instance(text) -> SetCoverInstance:
    """Parse the ``p sc`` format from a string or an iterable of lines."""
    return _parse(text, ("sc",))


def parse_hypergraph(text) -> Hypergraph:
    """Parse the ``p hg`` format.  A blank line in the edge section is an
    empty edge and is rejected."""
    return _parse(text, ("hg",))


def _parse(text, kinds: tuple[str, ...]) -> SetCoverInstance | Hypergraph:
    """Parse ``text`` in the format of one of ``kinds``.  A text laid out
    exactly as a serializer writes it is read as bytes, any other by lines;
    both readers hand the same id columns to the same checks, so the result
    or error does not depend on the reader."""
    if not isinstance(text, str):
        text = "\n".join(str(line).rstrip("\n") for line in text)
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
    Raises for a bad header or edge section."""
    header_line, body = _header_and_body(text)
    kind, fields = _header_fields(header_line, kinds)
    if kind == "sc":
        return kind, fields, _edge_columns(body)
    return kind, fields, _vertex_columns(fields[1], body)


def _header_and_body(text: str) -> tuple[str, list[str]]:
    """The first line that is neither blank nor a comment ('' when there is
    none), and the lines after it without comment lines."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.strip() and not _is_comment(line):
            break
    else:
        return "", []
    return lines[i], [line for line in lines[i + 1:] if not _is_comment(line)]


def _is_comment(line: str) -> bool:
    return line.lstrip().startswith("c")


def _edge_columns(body: list[str]):
    """(set ids, element ids, edge_at) of the edge lines; ``edge_at`` keeps
    the tokens only when the columns do not hold every id as written."""
    lines = [line for line in body if line.strip()]
    table = _edge_table([line.strip() for line in lines])
    if table is None:
        _raise_bad_edge_line(lines)
    sets, elems, tokens = table
    if tokens is not None:
        return sets, elems, lambda i: (int(tokens[3 * i + 1]), int(tokens[3 * i + 2]))
    return sets, elems, lambda i: (int(sets[i]), int(elems[i]))


def _edge_table(lines: list[str]):
    """(set ids, element ids, tokens) when every line is ``e <set> <element>``
    with the tag in its first column, else None.  The tokens are returned
    only when an id beyond int64 was stored as -1; otherwise the columns hold
    every id as written."""
    text = "\n".join(lines)
    tokens = text.split()
    n = len(lines)
    # every line starts with a tag, the tags sit at every third token and the
    # tokens between them are integers, so no line holds more or fewer than
    # three tokens
    if (len(tokens) != 3 * n or ("\n" + text).count("\ne") != n
            or tokens[0::3].count("e") != n):
        return None
    try:
        (sets, set_clamped), (elems, elem_clamped) = (_text_ids(tokens[1::3]),
                                                      _text_ids(tokens[2::3]))
    except ValueError:
        return None
    return sets, elems, tokens if set_clamped or elem_clamped else None


def _raise_bad_edge_line(lines: list[str]) -> None:
    for line in lines:
        parts = line.split()
        if parts[0] != "e" or len(parts) != 3:
            raise ParseError(f"bad edge line {line!r}; expected 'e <set> <element>'")
        try:
            int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ParseError(f"non-integer id in {line!r}") from exc
    raise ParseError("malformed edge section")


def serialize_instance(instance: SetCoverInstance) -> str:
    indptr, elems = instance.set_csr
    sets = np.repeat(np.arange(instance.num_sets), np.diff(indptr))
    out = [f"p sc {instance.num_sets} {instance.num_elements} {instance.m}"]
    out.extend(map("e {} {}".format, sets.tolist(), elems.tolist()))
    return "\n".join(out) + "\n"


def _vertex_columns(num_edges: int, body: list[str]):
    """(vertex ids, edge sizes, edge_at) of the first ``num_edges`` lines of
    ``body``; the lines after them must be blank."""
    if not 0 <= num_edges <= len(body):
        raise ParseError(f"header promises {num_edges} edge lines, found {len(body)}")
    if any(line.strip() for line in body[num_edges:]):
        raise ParseError(f"unexpected content after {num_edges} edge lines")
    lines = body[:num_edges]
    sizes = np.array([len(line.split()) for line in lines], dtype=np.int64)
    try:
        ids = _text_ids("\n".join(lines).split())[0] if sizes.all() else None
    except ValueError:
        ids = None
    if ids is None:
        _raise_bad_vertex_line(lines)
    return ids, sizes, lambda i: [int(x) for x in lines[i].split()]


def _raise_bad_vertex_line(lines: list[str]) -> None:
    for line in lines:
        parts = line.split()
        if not parts:
            raise EmptyEdge("blank line where an edge was expected")
        try:
            [int(x) for x in parts]
        except ValueError as exc:
            raise ParseError(f"non-integer vertex id in {line!r}") from exc
    raise ParseError("malformed edge section")


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
        raise ValueError("element_degree must be at least 1")
    if element_degree > num_sets:
        raise ValueError(
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
    of the sets containing it, so the rank equals the instance frequency.
    Element rows are already sorted, duplicate-free and in range."""
    return Hypergraph(
        num_vertices=instance.num_sets, rank=instance.freq,
        avg_rank=instance.m / instance.num_elements if instance.num_elements else 0.0,
        edge_csr=instance.element_csr)
