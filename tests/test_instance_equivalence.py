"""The array-backed instance build and parse against the per-edge loops they
replaced: equal instances and hypergraphs, or the same exception type and
message, on random edge lists and texts, on serializer-layout texts and on
single changes that move them off that layout; plus serialize/parse round
trips, which must take the byte reader."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cover_sampler import (EmptyEdge, InfeasibleInstance, ParseError,
                           parse_hypergraph, parse_instance,
                           serialize_hypergraph, serialize_instance,
                           to_hypergraph)
from cover_sampler import instance as instance_module
from cover_sampler.instance import Hypergraph, SetCoverInstance, parse_text

SETTINGS = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# --- the per-edge reference implementations --------------------------------

def reference_csr(rows):
    indptr, indices = [0], []
    for row in rows:
        indices.extend(row)
        indptr.append(len(indices))
    return np.array(indptr), np.array(indices, dtype=np.int64)


def reference_from_edges(num_sets, num_elements, edges):
    # the element count is checked against the edge count first, before
    # any list is sized by it
    if num_elements > len(edges):
        raise InfeasibleInstance(f"{num_elements} elements but {len(edges)} edges, "
                                 "so some element has degree 0")
    if num_sets < 0 or num_elements < 0:
        raise ParseError("negative size in header")
    set_adj = [[] for _ in range(num_sets)]
    elem_adj = [[] for _ in range(num_elements)]
    seen = set()
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
    return SetCoverInstance(
        num_sets=num_sets, num_elements=num_elements,
        delta=max(map(len, set_adj), default=0), freq=max(map(len, elem_adj), default=0),
        m=len(seen), set_csr=reference_csr(map(sorted, set_adj)),
        element_csr=reference_csr(map(sorted, elem_adj)))


def reference_hypergraph(num_vertices, edges):
    if num_vertices < 0:
        raise ParseError("negative vertex count")
    normalized = []
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
    return Hypergraph(num_vertices=num_vertices, rank=rank, avg_rank=avg,
                      edge_csr=reference_csr(normalized))


def _content_lines(text):
    return [ln for ln in text.splitlines() if not ln.lstrip().startswith("c")]


def reference_parse_instance(text):
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
    if num_elements > num_edges:
        raise InfeasibleInstance(f"{num_elements} elements but {num_edges} edges, "
                                 "so some element has degree 0")
    return reference_from_edges(num_sets, num_elements, edges)


def reference_parse_hypergraph(text):
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
    return reference_hypergraph(num_vertices, edges)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ParseError, InfeasibleInstance, ValueError) as exc:
        return type(exc), str(exc)


# --- strategies ----------------------------------------------------------------

ids = st.one_of(st.integers(-2, 6), st.integers(2 ** 63 - 2, 2 ** 70),
                st.integers(-2 ** 70, -2 ** 63))
small_ids = st.integers(-1, 6)
sizes = st.integers(0, 5)

# an id token: an integer, or text that int() rejects
id_tokens = st.one_of(small_ids.map(str), small_ids.map(str), small_ids.map(str),
                      st.sampled_from(["1.5", "1.0", "2e1", "x", "0x1", "99999999999999999999"]))
spaces = st.sampled_from([" ", "  ", "\t", " \t "])


@st.composite
def sc_texts(draw):
    num_sets, num_elements = draw(sizes), draw(sizes)
    lines = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.integers(0, 12))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "   ", "c note", "  c e 1 2"])))
        elif kind == 1:
            lines.append(draw(st.sampled_from(["e 1", "x 0 0", "e 0 0 0", "e", "e0 0 0"])))
        elif kind == 2:
            # tags and ids in any order, so a tag can land mid-line
            lines.append(" ".join(draw(st.lists(st.one_of(st.just("e"), id_tokens),
                                                min_size=1, max_size=5))))
        else:
            sep = draw(spaces)
            lead = draw(st.sampled_from(["", "", "", " ", "\t"]))
            lines.append(lead + sep.join(["e", draw(id_tokens), draw(id_tokens)]))
    edge_lines = sum(1 for ln in lines if ln.strip() and not ln.lstrip().startswith("c"))
    promised = draw(st.sampled_from([edge_lines] * 3 + [0, 1, 4]))
    header = f"p sc {num_sets} {num_elements} {promised}"
    prefix = draw(st.sampled_from(["", "c fixture\n", "\n"]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return prefix + newline.join([header] + lines) + draw(st.sampled_from(["", newline]))


@st.composite
def hg_texts(draw):
    num_vertices = draw(sizes)
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 10))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "c note", "  "])))
        else:
            sep = draw(spaces)
            lines.append(sep.join(draw(st.lists(id_tokens, min_size=1, max_size=4))))
    promised = draw(st.integers(0, len(lines) + 1))
    return f"p hg {num_vertices} {promised}\n" + "\n".join(lines)


# --- equivalence -------------------------------------------------------------------

@SETTINGS
@given(sizes, sizes, st.lists(st.tuples(ids, ids), max_size=12))
def test_from_edges_matches_reference(num_sets, num_elements, edges):
    assert (outcome(SetCoverInstance.from_edges, num_sets, num_elements, edges)
            == outcome(reference_from_edges, num_sets, num_elements, edges))


@SETTINGS
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4)), min_size=20, max_size=80))
def test_from_edges_names_the_first_repeat(edges):
    # long lists with many copies: the repeat named must be the first one a
    # per-edge loop meets, whatever order the sort leaves equal pairs in
    assert (outcome(SetCoverInstance.from_edges, 4, 5, edges)
            == outcome(reference_from_edges, 4, 5, edges))


@SETTINGS
@given(sizes, sizes, st.lists(st.tuples(small_ids, small_ids), min_size=1, max_size=12))
def test_from_edges_consumes_any_iterable(num_sets, num_elements, edges):
    assert (outcome(SetCoverInstance.from_edges, num_sets, num_elements, iter(edges))
            == outcome(reference_from_edges, num_sets, num_elements, edges))


@SETTINGS
@given(sc_texts())
def test_parse_instance_matches_reference(text):
    assert outcome(parse_instance, text) == outcome(reference_parse_instance, text)


@pytest.mark.parametrize("body", ["e 0\n1 e 2 3", "e 0 1 e\n2 3", "e 0\n 1\ne 2 3"],
                         ids=["tag-mid-line", "tag-at-line-end", "untagged-line"])
def test_parse_instance_rejects_lines_split_off_their_tag(body):
    # the tokens align in threes, but a line does not start with its tag
    text = "p sc 4 4 2\n" + body
    with pytest.raises(ParseError, match="bad edge line"):
        parse_instance(text)
    assert outcome(parse_instance, text) == outcome(reference_parse_instance, text)


@settings(SETTINGS, max_examples=100)
@given(st.data())
def test_parse_instance_reads_padded_valid_text(data):
    inst = data.draw(instances())
    header, *lines = serialize_instance(inst).splitlines()
    lines = data.draw(st.permutations(lines))
    padded = []
    for line in lines:
        padded.append(data.draw(st.sampled_from(["", " ", "\t"])) + line.replace(
            " ", data.draw(spaces)) + data.draw(st.sampled_from(["", " "])))
        padded.extend(data.draw(st.lists(st.sampled_from(["", "  ", "c note"]),
                                         max_size=1)))
    text = "\n".join(["c fixture", header] + padded)
    assert reference_parse_instance(text) == inst
    assert parse_instance(text) == inst


@SETTINGS
@given(sizes, st.lists(st.lists(ids, max_size=4), max_size=8))
def test_hypergraph_from_edges_matches_reference(num_vertices, edges):
    assert (outcome(Hypergraph.from_edges, num_vertices, edges)
            == outcome(reference_hypergraph, num_vertices, edges))


@SETTINGS
@given(hg_texts())
def test_parse_hypergraph_matches_reference(text):
    assert outcome(parse_hypergraph, text) == outcome(reference_parse_hypergraph, text)


@pytest.mark.parametrize("edges", [[(0.5, 0), (1, 1)], [(0, 1.0), (1, 1)], [("1", 0)]],
                         ids=["float-set", "integral-float", "string"])
def test_from_edges_rejects_non_integer_ids(edges):
    # a per-edge loop would have stored such ids as they came
    with pytest.raises(ParseError, match="non-integer id"):
        SetCoverInstance.from_edges(2, 2, edges)


@pytest.mark.parametrize("line", ["e 1.5 0", "e 1.0 0", "e 0 2e0", "e 0x1 0"])
def test_parse_rejects_non_integer_ids_without_truncating(line):
    with pytest.raises(ParseError, match="non-integer id"):
        parse_instance(f"p sc 3 1 1\n{line}")


# --- round trips ---------------------------------------------------------------

@st.composite
def instances(draw):
    num_sets = draw(st.integers(1, 6))
    num_elements = draw(st.integers(0, 8))
    edges = set()
    for t in range(num_elements):
        for s in draw(st.sets(st.integers(0, num_sets - 1), min_size=1)):
            edges.add((s, t))
    extra = draw(st.lists(st.tuples(st.integers(0, num_sets - 1),
                                    st.integers(0, max(num_elements - 1, 0))), max_size=4))
    if num_elements:
        edges.update(extra)
    return SetCoverInstance.from_edges(num_sets, num_elements,
                                       draw(st.permutations(sorted(edges))))


@st.composite
def hypergraphs(draw):
    num_vertices = draw(st.integers(1, 7))
    edges = draw(st.lists(st.sets(st.integers(0, num_vertices - 1), min_size=1)
                          .map(lambda vs: sorted(vs, reverse=True)), max_size=8))
    return Hypergraph.from_edges(num_vertices, edges)


@SETTINGS
@given(instances())
def test_instance_round_trip(inst):
    assert parse_instance(serialize_instance(inst)) == inst


@SETTINGS
@given(hypergraphs())
def test_hypergraph_round_trip(hg):
    assert parse_hypergraph(serialize_hypergraph(hg)) == hg


@SETTINGS
@given(instances())
def test_to_hypergraph_matches_from_edges(inst):
    assert to_hypergraph(inst) == Hypergraph.from_edges(inst.num_sets, inst.element_neighbors)


# --- the byte reader against the line-by-line references ------------------------

layout_ids = st.one_of(st.integers(0, 6), st.integers(0, 6), st.integers(0, 10 ** 18 - 1))


@st.composite
def serialized_sc(draw):
    """Text in the serializer's layout, valid or not: ids may repeat or be
    out of range and the promised edge count may be wrong."""
    num_sets, num_elements = draw(sizes), draw(sizes)
    edges = draw(st.lists(st.tuples(layout_ids, layout_ids), max_size=8))
    promised = draw(st.sampled_from([len(edges)] * 3 + [0, len(edges) + 1]))
    lines = [f"p sc {num_sets} {num_elements} {promised}"]
    lines += [f"e {s} {t}" for s, t in edges]
    return "\n".join(lines) + "\n"


@st.composite
def serialized_hg(draw):
    num_vertices = draw(sizes)
    edges = draw(st.lists(st.lists(layout_ids, min_size=1, max_size=4), max_size=6))
    promised = draw(st.sampled_from([len(edges)] * 3 + [0, len(edges) + 1]))
    lines = [f"p hg {num_vertices} {promised}"]
    lines += [" ".join(map(str, edge)) for edge in edges]
    return "\n".join(lines) + "\n"


MUTATIONS = ["none", "double-space", "tab", "crlf", "leading-space", "blank-line",
             "comment-line", "plus", "arabic-digit", "19-digits", "20-digits",
             "no-final-newline", "trailing-blank-lines", "e-in-id", "tag-after-id",
             "id-glued-to-tag"]


def mutate(draw, text, name):
    """``text`` with the one change ``name``, each of which moves a text off
    the serializer's layout; an id change applies to an id after the header
    (the text is returned as it is when there is none)."""
    def position(char):
        return draw(st.sampled_from([i for i, c in enumerate(text) if c == char]))

    line_start = draw(st.sampled_from([0] + [i + 1 for i, c in enumerate(text[:-1])
                                             if c == "\n"]))
    body = [m for m in re.finditer(r"\d+", text) if m.start() > text.index("\n")]
    token = draw(st.sampled_from(body)) if body else None
    if name == "double-space":
        at = position(" ")
        return text[:at] + " " + text[at:]
    if name == "tab":
        at = position(" ")
        return text[:at] + "\t" + text[at + 1:]
    if name == "crlf":
        at = position("\n")
        return text[:at] + "\r" + text[at:]
    if name in ("leading-space", "blank-line", "comment-line"):
        piece = {"leading-space": " ", "blank-line": "\n", "comment-line": "c e 1 2\n"}[name]
        return text[:line_start] + piece + text[line_start:]
    if name == "no-final-newline":
        return text[:-1]
    if name == "trailing-blank-lines":
        return text + draw(st.sampled_from(["\n", "\n\n", " \n"]))
    if name == "tag-after-id":
        # "e 5 3" to "5 e 3": three tokens, one e, but not at the line start
        return re.sub(r"(?m)^e (\d+)", r"\1 e", text, count=1)
    if name == "id-glued-to-tag":
        return re.sub(r"(?m)^e ", "5e ", text, count=1)
    if name == "none" or token is None:
        return text
    old = token.group()
    if name in ("19-digits", "20-digits"):
        # the same id zero-padded, or an id of that many digits
        width = int(name[:2])
        new = draw(st.sampled_from([old.zfill(width),
                                    str(10 ** (width - 1) + int(old) % 10 ** 18)]))
    else:
        new = {"plus": "+" + old, "arabic-digit": old[:-1] + "\u0663",
               "e-in-id": old[:1] + "e" + old[1:]}[name]
    return text[:token.start()] + new + text[token.end():]


@SETTINGS
@given(serialized_sc(), st.sampled_from(MUTATIONS), st.data())
def test_parse_instance_off_the_serializer_layout_matches_reference(text, name, data):
    text = mutate(data.draw, text, name)
    expected = outcome(reference_parse_instance, text)
    assert outcome(parse_instance, text) == expected
    assert outcome(parse_text, text) == expected


@SETTINGS
@given(serialized_hg(), st.sampled_from(MUTATIONS), st.data())
def test_parse_hypergraph_off_the_serializer_layout_matches_reference(text, name, data):
    text = mutate(data.draw, text, name)
    expected = outcome(reference_parse_hypergraph, text)
    assert outcome(parse_hypergraph, text) == expected
    assert outcome(parse_text, text) == expected


# the middle edge line of a valid text, written off the layout
OFF_LAYOUT = {
    "sc": {"double-space": "e 0  0", "tab": "e 0\t0", "crlf": "e 0 0\r",
           "leading-space": " e 0 0", "blank-line": "\ne 0 0", "comment-line": "c e 0 0\ne 0 0",
           "plus": "e +0 0", "arabic-digit": "e \u0660 0", "19-digits": "e 0000000000000000000 0",
           "19-digits-out-of-range": "e 1000000000000000000 0",
           "20-digits": "e 10000000000000000000 0", "e-in-id": "e 0e0 0",
           "tag-after-id": "0 e 0", "id-glued-to-tag": "0e 0 0"},
    "hg": {"double-space": "0  2", "tab": "0\t2", "crlf": "0 2\r", "leading-space": " 0 2",
           "blank-line": "\n0 2", "comment-line": "c 0 1\n0 2", "plus": "+0 2",
           "arabic-digit": "\u0660 2", "19-digits": "0000000000000000000 2",
           "19-digits-out-of-range": "1000000000000000000 2",
           "20-digits": "10000000000000000000 2", "trailing-space": "0 2 "},
}
AROUND = {"sc": ("p sc 2 2 3\ne 1 1\n{}\ne 1 0\n", parse_instance, reference_parse_instance),
          "hg": ("p hg 3 3\n0 1\n{}\n1 2\n", parse_hypergraph, reference_parse_hypergraph)}


@pytest.mark.parametrize("kind, line",
                         [(k, v) for k in OFF_LAYOUT for v in OFF_LAYOUT[k].values()],
                         ids=[f"{k}-{n}" for k in OFF_LAYOUT for n in OFF_LAYOUT[k]])
def test_each_layout_break_goes_to_the_line_reader(kind, line):
    template, parse, reference = AROUND[kind]
    text = template.format(line)
    assert instance_module._read_layout(text, (kind,)) is None
    assert outcome(parse, text) == outcome(reference, text)
    assert outcome(parse_text, text) == outcome(reference, text)


@SETTINGS
@given(instances(), hypergraphs())
def test_serializer_output_takes_the_byte_reader(inst, hg):
    def refuse(text, kinds):
        raise AssertionError(f"line reader called on {text!r}")

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(instance_module, "_read_lines", refuse)
        for text, parsed in [(serialize_instance(inst), inst),
                             (serialize_hypergraph(hg), hg)]:
            assert parse_text(text) == parsed
            assert (parse_instance if parsed is inst else parse_hypergraph)(text) == parsed
