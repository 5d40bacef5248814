"""Parsing, generation, serialization round-trips, and the hypergraph view."""

import tracemalloc
from functools import partial

import pytest
from _reference import csr_rows
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cover_sampler import (CoverSamplerError, EmptyEdge, InfeasibleInstance,
                           ParseError, generate_random_hypergraph,
                           generate_random_instance, parse_hypergraph,
                           parse_instance, serialize_hypergraph,
                           serialize_instance, to_hypergraph)
from cover_sampler.instance import (MAX_EMPTY_SETS, Hypergraph, SetCoverInstance,
                                    parse_text)


def test_parse_single_set_covering_two_elements():
    inst = parse_instance("p sc 1 2 2\ne 0 0\ne 0 1")
    assert inst.delta == 2
    assert inst.freq == 1
    assert inst.m == 2
    assert csr_rows(inst.set_csr) == [(0, 1)]


def test_parse_one_element_in_two_sets():
    inst = parse_instance("p sc 2 1 2\ne 0 0\ne 1 0")
    assert inst.delta == 1
    assert inst.freq == 2
    assert csr_rows(inst.element_csr) == [(0, 1)]


def test_parse_uncovered_element_is_infeasible():
    # both edges land on element 0, so element 1 has degree 0
    with pytest.raises(InfeasibleInstance, match="element id 1"):
        parse_instance("p sc 2 2 2\ne 0 0\ne 1 0")


def test_parse_rejects_element_count_before_allocating():
    # an array per header element or set would take from 76 MB to GBs
    for build, error, message in [
        (lambda: parse_instance("p sc 1 10000000 1\ne 0 0"),
         InfeasibleInstance, "10000000 elements but 1 edges"),
        (lambda: SetCoverInstance.from_edges(1, 10 ** 7, [(0, 0)]),
         InfeasibleInstance, "10000000 elements but 1 edges"),
        (lambda: parse_instance("p sc 10000000 1 1\ne 0 0\n"),
         ParseError, "10000000 sets but 1 edges"),
        (lambda: SetCoverInstance.from_edges(10 ** 9, 1, [(0, 0)]),
         ParseError, "1000000000 sets but 1 edges"),
    ]:
        tracemalloc.start()
        try:
            with pytest.raises(error, match=message):
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20, message


def test_set_count_cap_admits_empty_sets_up_to_the_cap():
    inst = parse_instance(f"p sc {1 + MAX_EMPTY_SETS} 1 1\ne 0 0\n")
    assert inst.num_sets == 1 + MAX_EMPTY_SETS and inst.delta == 1
    with pytest.raises(ParseError, match="sets beyond the edge count"):
        SetCoverInstance.from_edges(2 + MAX_EMPTY_SETS, 1, [(0, 0)])


HOSTILE_COUNTS = st.sampled_from([-1, 0, 1, 2, 3, 2 ** 20, 2 ** 31, 2 ** 40,
                                  2 ** 63 - 1, 2 ** 63, 10 ** 30])
HOSTILE_IDS = st.one_of(st.integers(0, 3), HOSTILE_COUNTS)


def traced_outcome(call):
    """``call()``'s result or `CoverSamplerError`, and its tracemalloc peak;
    any other exception propagates."""
    tracemalloc.start()
    try:
        try:
            result = call()
        except CoverSamplerError as exc:
            result = exc
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@settings(max_examples=60, deadline=None)
@given(st.tuples(HOSTILE_COUNTS, HOSTILE_COUNTS, HOSTILE_COUNTS),
       st.lists(st.tuples(HOSTILE_IDS, HOSTILE_IDS), max_size=4),
       st.tuples(HOSTILE_COUNTS, HOSTILE_COUNTS),
       st.lists(st.lists(HOSTILE_IDS, max_size=3), max_size=4))
@example((MAX_EMPTY_SETS + 1, 1, 1), [(0, 0)], (2 ** 63 - 1, 1), [[2 ** 40]])
@example((MAX_EMPTY_SETS + 2, 1, 1), [(0, 0)], (3, 2 ** 63 - 1), [[0, 1]])
def test_hostile_header_counts_end_in_bounded_memory(sc_counts, pairs, hg_counts, edges):
    # every text in serializer layout (when its counts and ids allow) and
    # behind a comment line, which only the line reader takes
    sc_text = "p sc {} {} {}\n".format(*sc_counts) + "".join(
        f"e {s} {t}\n" for s, t in pairs)
    hg_text = "p hg {} {}\n".format(*hg_counts) + "".join(
        " ".join(map(str, edge)) + "\n" for edge in edges)
    calls = [partial(SetCoverInstance.from_edges, *sc_counts[:2], pairs),
             partial(Hypergraph.from_edges, hg_counts[0], edges)]
    calls += [partial(parse, lead + text) for text in (sc_text, hg_text)
              for lead in ("", "c hostile header\n")
              for parse in (parse_text, parse_instance, parse_hypergraph)]
    for call in calls:
        result, peak = traced_outcome(call)
        # the sets of a returned instance may be up to MAX_EMPTY_SETS more
        # than its edges, at about 20 bytes each
        sets = result.num_sets if isinstance(result, SetCoverInstance) else 0
        assert peak < 4 * 2 ** 20 + 24 * sets, (call, result)


@pytest.mark.parametrize("text", [
    "",
    "p sc 1 1",
    "p xx 1 1 1",
    "p sc 1 1 1\nx 0 0",
    "p sc 1 1 1\ne 0 0\ne 0 0",   # two edges for one promised: a count mismatch
    "p sc 1 1 2\ne 0 0",
    "p sc 1 1 1\ne 1 0",
    "p sc 1 1 1\ne 0 1",
], ids=["empty", "short-header", "bad-kind", "bad-line-tag", "extra-edge",
        "missing-edge", "set-out-of-range", "element-out-of-range"])
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_instance(text)


def test_parse_duplicate_edge():
    with pytest.raises(ParseError, match="duplicate edge"):
        parse_instance("p sc 1 1 2\ne 0 0\ne 0 0")


def test_comments_and_blank_lines_skipped():
    inst = parse_instance("c fixture\n\np sc 1 1 1\nc mid\ne 0 0\n")
    assert inst.m == 1


def test_empty_instance_is_valid():
    inst = parse_instance("p sc 3 0 0")
    assert inst.num_sets == 3
    assert inst.delta == 0 and inst.freq == 0 and inst.m == 0


def test_roundtrip_serialization():
    inst = generate_random_instance(9, 30, 3, seed=4)
    again = parse_instance(serialize_instance(inst))
    assert again == inst


def test_parse_hypergraph_basic():
    hg = parse_hypergraph("p hg 2 1\n0 1")
    assert hg.rank == 2
    assert len(hg.edges) == 1


def test_parse_hypergraph_avg_rank():
    hg = parse_hypergraph("p hg 3 2\n0 1 2\n1 2")
    assert hg.rank == 3
    assert hg.avg_rank == pytest.approx(2.5)


def test_parse_hypergraph_empty_edge():
    with pytest.raises(EmptyEdge):
        parse_hypergraph("p hg 2 1\n\n")


def test_parse_hypergraph_errors():
    with pytest.raises(ParseError):
        parse_hypergraph("p hg 2 1\n0 2")
    with pytest.raises(ParseError, match="duplicate vertex"):
        parse_hypergraph("p hg 2 1\n0 0")
    with pytest.raises(ParseError):
        parse_hypergraph("p hg 2 2\n0 1")
    with pytest.raises(ParseError, match="promises -1 edge lines"):
        parse_hypergraph("p hg 3 -1\n0 1\n\n")


@pytest.mark.parametrize("build", [
    lambda: parse_hypergraph("p hg 99999999999999999999 1\n99999999999999999998\n"),
    lambda: Hypergraph.from_edges(2 ** 64, [[2 ** 64 - 1]]),
    lambda: parse_instance("p sc 99999999999999999999 1 1\ne 99999999999999999998 0\n"),
    lambda: SetCoverInstance.from_edges(2 ** 64, 1, [(0, 0)]),
], ids=["parse-hg", "hg-from-edges", "parse-sc", "sc-from-edges"])
def test_size_beyond_int64_rejected(build):
    # ids beyond int64 are stored as -1 on the promise that every size fits
    with pytest.raises(ParseError, match="beyond int64"):
        build()


def test_hypergraph_roundtrip():
    hg = generate_random_hypergraph(12, 18, 3, seed=8, min_size=2)
    assert parse_hypergraph(serialize_hypergraph(hg)) == hg


def test_generator_degree_one_and_full():
    inst = generate_random_instance(4, 10, 1, seed=7)
    assert inst.freq == 1
    assert all(len(a) == 1 for a in csr_rows(inst.element_csr))
    full = generate_random_instance(4, 10, 4, seed=7)
    assert full.delta == 10
    assert all(len(a) == 4 for a in csr_rows(full.element_csr))


def test_generator_edge_budget():
    inst = generate_random_instance(20, 100, 3, seed=1)
    assert inst.freq == 3
    assert sum(len(a) for a in csr_rows(inst.set_csr)) == 300
    assert inst.m == 300


def test_generator_deterministic():
    a = generate_random_instance(15, 50, 2, seed=123)
    b = generate_random_instance(15, 50, 2, seed=123)
    assert a == b
    c = generate_random_instance(15, 50, 2, seed=124)
    assert a != c


def test_generator_rejects_bad_degree():
    with pytest.raises(ValueError):
        generate_random_instance(3, 5, 4, seed=0)
    with pytest.raises(ValueError):
        generate_random_instance(3, 5, 0, seed=0)


def test_to_hypergraph_singletons():
    inst = parse_instance("p sc 1 2 2\ne 0 0\ne 0 1")
    hg = to_hypergraph(inst)
    assert hg.num_vertices == 1
    assert hg.edges == ((0,), (0,))


def test_to_hypergraph_degree_two_gives_simple_graph():
    inst = generate_random_instance(6, 20, 2, seed=3)
    hg = to_hypergraph(inst)
    assert hg.rank == 2


def test_to_hypergraph_incidence_preserved():
    inst = generate_random_instance(20, 100, 3, seed=5)
    hg = to_hypergraph(inst)
    assert len(hg.edges) == 100
    assert hg.avg_rank == pytest.approx(3.0)
    assert list(hg.edges) == csr_rows(inst.element_csr)


def test_hypergraph_max_degree():
    hg = Hypergraph.from_edges(4, [[0, 1], [0, 2], [0, 3]])
    assert hg.max_vertex_degree() == 3


def test_max_vertex_degree_memory_follows_incidences():
    # a count per header vertex would take 80 MB for one incidence
    hg = parse_hypergraph("p hg 10000000 1\n9999999\n")
    tracemalloc.start()
    try:
        degree = hg.max_vertex_degree()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert degree == 1
    assert peak < 2 ** 20


def test_from_edges_consistency():
    inst = SetCoverInstance.from_edges(2, 2, [(0, 0), (1, 1), (0, 1)])
    set_rows, element_rows = csr_rows(inst.set_csr), csr_rows(inst.element_csr)
    for s, adj in enumerate(set_rows):
        for t in adj:
            assert s in element_rows[t]
    for t, adj in enumerate(element_rows):
        for s in adj:
            assert t in set_rows[s]
