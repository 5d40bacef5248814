"""Matching solver: validity, trivial structures, the star lower bound, the
same-step-conflict structural property, equality with the per-visit reference
in ``_reference.py`` on both sweeps (the step-draw crossover of
``test_cover_equivalence.CROSSOVERS``: at its default, forced to the array
sweep (0), forced to the Python sweep (huge) and set to 3), and memory
that follows the edges on a hostile vertex header, on both sweeps."""

import os
import subprocess
import threading
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from _reference import ref_matching
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_cover_equivalence import CROSSOVERS, crossover

from cover_sampler import (Hypergraph, Matching, cli, exact_max_matching,
                           generate_random_hypergraph, hypergraph_matching,
                           parse_hypergraph, verify_matching)
from cover_sampler.corpus import build_matching_corpus, build_sparsification_hypergraphs
from cover_sampler.instance import generate_random_instance, to_hypergraph
from cover_sampler.mpc_sim import sparsify_non_isolated_counts
from cover_sampler.util import derive_rng, mean_ci95

EQUIVALENCE_EPS = (0.01, 0.1, 0.25)


def star(d=10):
    return Hypergraph.from_edges(d + 1, [[0, v] for v in range(1, d + 1)])


def test_empty_hypergraph():
    hg = Hypergraph.from_edges(3, [])
    m, counters = hypergraph_matching(hg, 0.25, derive_rng(0))
    assert m.size == 0
    assert verify_matching(hg, m) == (True, None)


def test_single_edge_always_matched():
    hg = Hypergraph.from_edges(3, [[0, 1, 2]])
    for seed in range(20):
        m, _ = hypergraph_matching(hg, 0.5, derive_rng(seed))
        assert m.edge_ids == (0,)


def test_star_size_zero_or_one():
    hg = star(8)
    for seed in range(200):
        m, _ = hypergraph_matching(hg, 0.25, derive_rng(3, seed))
        assert m.size in (0, 1)
        assert verify_matching(hg, m)[0]


def test_star_mean_close_to_one():
    hg = star(10)
    sizes = [hypergraph_matching(hg, 0.05, derive_rng(4, t))[0].size
             for t in range(10_000)]
    assert np.mean(sizes) >= 1 - 6 * 0.05


def test_validity_random_hypergraphs():
    for rank in (2, 3):
        hg = generate_random_hypergraph(18, 30, rank, seed=rank)
        for seed in range(100):
            m, _ = hypergraph_matching(hg, 0.25, derive_rng(5, seed))
            ok, witness = verify_matching(hg, m)
            assert ok, f"vertex {witness} used twice"


def test_size_never_exceeds_optimum():
    hg = generate_random_hypergraph(12, 20, 3, seed=9)
    opt = exact_max_matching(hg)
    for seed in range(100):
        m, _ = hypergraph_matching(hg, 0.25, derive_rng(6, seed))
        assert m.size <= opt


def test_deterministic_given_seed():
    hg = generate_random_hypergraph(20, 40, 3, seed=1)
    a, _ = hypergraph_matching(hg, 0.1, derive_rng(7))
    b, _ = hypergraph_matching(hg, 0.1, derive_rng(7))
    assert a == b


def test_rank3_expected_size_bound():
    hg = generate_random_hypergraph(15, 22, 3, seed=2)
    eps = 0.01
    opt = exact_max_matching(hg)
    sizes = [hypergraph_matching(hg, eps, derive_rng(8, t))[0].size
             for t in range(200)]
    mean, ci = mean_ci95(sizes)
    assert mean + ci >= (1 - 3 * 6 * eps) / 3 * opt


def test_verify_matching_witness():
    hg = Hypergraph.from_edges(4, [[0, 1], [1, 2], [2, 3]])
    assert verify_matching(hg, Matching(())) == (True, None)
    assert verify_matching(hg, Matching((0, 2))) == (True, None)
    assert verify_matching(hg, Matching((0, 1))) == (False, 1)
    with pytest.raises(ValueError):
        verify_matching(hg, Matching((9,)))


def assert_same_as_reference(hg, eps, *seed, modes=CROSSOVERS):
    ref_m, ref_counters = ref_matching(hg, eps, derive_rng(*seed))
    for mode in modes:
        with pytest.MonkeyPatch.context() as mp:
            crossover(mp, mode)
            m, counters = hypergraph_matching(hg, eps, derive_rng(*seed))
        assert m == ref_m, mode
        assert astuple(counters) == astuple(ref_counters), mode


@st.composite
def hypergraphs(draw):
    """Ranks 1-4 over a vertex range with isolated vertices, and ids drawn
    from both ends of the range, so some sit next to ``num_vertices``."""
    num_vertices = draw(st.integers(1, 5000))
    ids = st.one_of(st.integers(0, min(num_vertices, 12) - 1),
                    st.integers(max(num_vertices - 12, 0), num_vertices - 1))
    edges = draw(st.lists(st.lists(ids, min_size=1, max_size=4, unique=True),
                          max_size=40))
    return Hypergraph.from_edges(num_vertices, edges)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(hypergraphs(), st.sampled_from(EQUIVALENCE_EPS), st.integers(0, 2 ** 32 - 1))
def test_matching_matches_reference(hg, eps, seed):
    assert_same_as_reference(hg, eps, seed)


@pytest.mark.parametrize("eps", EQUIVALENCE_EPS)
def test_matching_matches_reference_on_corpora(eps):
    for idx, hg in enumerate(build_matching_corpus() + build_sparsification_hypergraphs()):
        for seed in range(5):
            assert_same_as_reference(hg, eps, idx, seed)


@pytest.mark.parametrize("eps", [0.01, 1 / 12, 0.25])
def test_array_sweep_matches_reference_on_a_large_dual(eps):
    # 20000 edges, so the default crossover sorts the draw and sweeps arrays
    hg = to_hypergraph(generate_random_instance(2000, 20000, 3, seed=1))
    for seed in range(2):
        assert_same_as_reference(hg, eps, 9, seed, modes=("default",))


def hostile_hypergraph_text(num_edges=600):
    """``num_edges`` distinct edges of 2 or 3 vertices among the 300 ids
    just below 1e10, under a header of 1e10 vertices."""
    rng = derive_rng(13)
    edges = set()
    while len(edges) < num_edges:
        size = int(rng.integers(2, 4))
        edges.add(tuple(sorted(10 ** 10 - 1 - rng.choice(300, size, replace=False))))
    lines = [" ".join(map(str, e)) for e in sorted(edges)]
    return f"p hg {10 ** 10} {num_edges}\n" + "\n".join(lines) + "\n"


def _refuse(*args, **kwargs):
    raise AssertionError("a process or thread was started")


def test_hostile_vertex_header_runs_in_bounded_memory(tmp_path, monkeypatch, capsys):
    # 1e10 vertices: a dead array, a count or a bitmask sized by the header
    # would need gigabytes; only vertex 9999999999 is present
    text = "p hg 10000000000 1\n9999999999\n"
    path = tmp_path / "hostile.hg"
    path.write_text(text)
    for target, name in ((subprocess, "Popen"), (os, "fork"), (os, "posix_spawn"),
                         (threading.Thread, "start")):
        monkeypatch.setattr(target, name, _refuse)
    tracemalloc.start()
    try:
        hg = parse_hypergraph(text)
        m, _ = hypergraph_matching(hg, 0.25, derive_rng(0))
        counts = sparsify_non_isolated_counts(hg, 0.5, 20, derive_rng(1))
        opt = exact_max_matching(hg)
        valid = verify_matching(hg, m)
        code = cli.main(["solve", str(path), "--alg", "match", "--eps", "0.25"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.edge_ids == (0,) and opt == 1 and valid == (True, None)
    assert set(counts.tolist()) <= {0, 1}
    assert code == 0
    assert "match" in capsys.readouterr().out
    assert peak < 4 * 2 ** 20


def test_hostile_vertex_header_array_sweep_runs_in_bounded_memory(tmp_path, capsys):
    # 600 edges, so matching sorts its draw and sweeps arrays; a dead array
    # sized by the 1e10 header would need 10 GB
    text = hostile_hypergraph_text()
    path = tmp_path / "hostile.hg"
    path.write_text(text)
    tracemalloc.start()
    try:
        hg = parse_hypergraph(text)
        m, counters = hypergraph_matching(hg, 0.05, derive_rng(2))
        valid = verify_matching(hg, m)
        code = cli.main(["solve", str(path), "--alg", "match", "--eps", "0.05"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert valid == (True, None) and m.size > 0
    assert code == 0
    assert "match" in capsys.readouterr().out
    assert peak < 4 * 2 ** 20
    # the same edges over their ids ranked among themselves match alike
    indptr, vertices = hg.edge_csr
    ranks = np.unique(vertices, return_inverse=True)[1].tolist()
    bounds = indptr.tolist()
    compact = Hypergraph.from_edges(300, [ranks[a:b] for a, b in zip(bounds, bounds[1:])])
    ref_m, ref_counters = ref_matching(compact, 0.05, derive_rng(2))
    assert m == ref_m and astuple(counters) == astuple(ref_counters)
