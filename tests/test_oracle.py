"""Exact oracles (with an oracle-vs-oracle cross-check), greedy, harmonic
numbers, and the ratio harness."""

import sys
import tracemalloc

import numpy as np
import pytest
from _reference import ref_exact_min_cover
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cover_sampler import (Cover, InvalidConfig, TooLarge, exact_max_matching, exact_min_cover,
                           f_approx_bucketed, f_approx_bound,
                           generate_random_hypergraph, generate_random_instance,
                           greedy_cover, harmonic, hypergraph_matching,
                           matching_bound, measure_ratio, verify_cover)
from cover_sampler import oracle
from cover_sampler.corpus import build_cover_corpus
from cover_sampler.instance import Hypergraph, SetCoverInstance
from cover_sampler.oracle import exhaustive_min_cover
from cover_sampler.util import derive_rng

# optima of build_cover_corpus(100), recorded from the plain
# ceil(uncovered/delta) branch and bound before the packing bound and memo
CORPUS_OPTIMA = [
    12, 10, 8, 9, 7, 7, 12, 7, 5, 13, 9, 9, 9, 7, 5, 14, 5, 8, 10, 8,
    5, 12, 9, 8, 13, 8, 5, 10, 9, 4, 11, 8, 7, 10, 9, 6, 9, 6, 6, 10,
    7, 7, 8, 5, 8, 11, 11, 5, 10, 9, 7, 11, 10, 7, 8, 8, 9, 11, 7, 7,
    16, 9, 8, 9, 10, 6, 16, 9, 4, 12, 7, 7, 14, 10, 5, 9, 8, 5, 8, 7,
    8, 9, 8, 8, 13, 7, 4, 13, 8, 5, 9, 8, 7, 10, 9, 6, 8, 8, 6, 13,
]


@st.composite
def small_instances(draw):
    """Instances of 1-12 sets in one of three shapes: every set holds at most
    one element (delta 1); each element sits in one set, in every set or in
    two or three sets; or a planted cover of disjoint sets among larger
    decoys, on which greedy tends to miss the optimum."""
    num_sets = draw(st.integers(1, 12))
    set_id = st.integers(0, num_sets - 1)
    shape = draw(st.sampled_from(["delta-one", "mixed", "planted"]))
    if shape == "delta-one":
        n = draw(st.integers(1, num_sets))
        extra = draw(st.lists(st.integers(0, n - 1),
                              min_size=num_sets - n, max_size=num_sets - n))
        edges = list(enumerate(list(range(n)) + extra))
    elif shape == "mixed":
        rows = draw(st.lists(st.one_of(set_id.map(lambda s: {s}),
                                       st.just(set(range(num_sets))),
                                       st.sets(set_id, min_size=min(2, num_sets), max_size=3)),
                             max_size=20))
        n = len(rows)
        edges = [(s, t) for t, row in enumerate(rows) for s in sorted(row)]
    else:
        planted = draw(st.integers(1, num_sets))
        width = draw(st.integers(1, 4))
        n = planted * width
        decoys = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=min(width + 1, n)),
                               min_size=num_sets - planted, max_size=num_sets - planted))
        edges = [(t // width, t) for t in range(n)]
        edges += [(planted + i, t) for i, decoy in enumerate(decoys) for t in sorted(decoy)]
    return SetCoverInstance.from_edges(num_sets, n, edges)


def test_exact_cover_single_set():
    inst = SetCoverInstance.from_edges(1, 4, [(0, t) for t in range(4)])
    assert exact_min_cover(inst) == 1


def test_exact_cover_disjoint_singletons():
    inst = SetCoverInstance.from_edges(4, 4, [(s, s) for s in range(4)])
    assert exact_min_cover(inst) == 4


def test_exact_cover_triangle_of_pairs():
    # {a,b}, {b,c}, {a,c}: any two sets cover all three elements
    inst = SetCoverInstance.from_edges(
        3, 3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2)])
    assert exact_min_cover(inst) == 2
    assert exhaustive_min_cover(inst) == 2


def test_exact_cover_limit():
    inst = generate_random_instance(31, 10, 2, seed=0)
    with pytest.raises(TooLarge):
        exact_min_cover(inst)


def test_exact_cover_matches_exhaustive():
    for seed in range(25):
        inst = generate_random_instance(9, 20, 2, seed=seed)
        assert exact_min_cover(inst) == exhaustive_min_cover(inst)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_instances())
def test_exact_cover_matches_exhaustive_on_random_shapes(inst):
    assert exact_min_cover(inst) == exhaustive_min_cover(inst)


def test_exact_cover_corpus_optima_pinned():
    assert [exact_min_cover(inst) for inst in build_cover_corpus(100)] == CORPUS_OPTIMA


def test_exact_cover_search_effort_bounded():
    # counts calls of the search's node function and records each node's
    # (covered, allowed) pair; the first five corpus instances take 839
    # nodes, no pair repeats (so a memo of them would never prune), and
    # trying each set without forbidding its earlier siblings (5747) or
    # dropping the packing bound (1961) goes past the bound
    nodes = []

    def record_node(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "descend":
            nodes.append((frame.f_locals["covered"], frame.f_locals["allowed"]))

    corpus = build_cover_corpus(100)[:5]
    previous = sys.getprofile()
    sys.setprofile(record_node)
    try:
        optima = [exact_min_cover(inst) for inst in corpus]
    finally:
        sys.setprofile(previous)
    assert optima == CORPUS_OPTIMA[:5]
    assert 0 < len(nodes) <= 900
    assert len(set(nodes)) == len(nodes)


def test_exact_cover_matches_reference_beyond_exhaustive_limit():
    # the search that forbids no sibling, at 30 sets, where brute force
    # cannot reach; the sparser shapes vary the optimum from 10 to 15
    for shape in [(30, 80, 6), (30, 60, 3), (30, 50, 2)]:
        for seed in range(10):
            inst = generate_random_instance(*shape, seed=seed)
            assert exact_min_cover(inst) == ref_exact_min_cover(inst)


def test_exact_cover_optima_survive_relabelling():
    # siblings are forbidden in an order that ties break by set id, so a
    # prune that leans on that order would show under permuted ids
    rng = np.random.default_rng(28)
    for inst, opt in zip(build_cover_corpus(100), CORPUS_OPTIMA):
        set_perm = rng.permutation(inst.num_sets)
        element_perm = rng.permutation(inst.num_elements)
        edges = [(int(set_perm[s]), int(element_perm[t]))
                 for s in range(inst.num_sets) for t in inst.set_rows[s]]
        relabelled = SetCoverInstance.from_edges(inst.num_sets, inst.num_elements, edges)
        assert exact_min_cover(relabelled) == opt


def test_exact_matching_trivia():
    single = Hypergraph.from_edges(3, [[0, 1, 2]])
    assert exact_max_matching(single) == 1
    fan = Hypergraph.from_edges(6, [[0, v] for v in range(1, 6)])
    assert exact_max_matching(fan) == 1
    triangle = Hypergraph.from_edges(3, [[0, 1], [1, 2], [0, 2]])
    assert exact_max_matching(triangle) == 1


def test_exact_matching_limit():
    hg = generate_random_hypergraph(30, 26, 2, seed=4)
    with pytest.raises(TooLarge):
        exact_max_matching(hg)


def test_greedy_covers_and_is_deterministic():
    inst = generate_random_instance(18, 60, 3, seed=6)
    cover = greedy_cover(inst)
    assert verify_cover(inst, cover)[0]
    assert greedy_cover(inst) == cover


def test_greedy_within_harmonic_factor():
    for seed in range(20):
        inst = generate_random_instance(12, 36, 3, seed=seed)
        opt = exact_min_cover(inst)
        assert greedy_cover(inst).size <= harmonic(inst.delta) * opt + 1e-9


def test_harmonic_values():
    assert harmonic(1) == 1.0
    assert harmonic(2) == 1.5
    assert harmonic(4) == pytest.approx(2.083333, abs=1e-5)
    with pytest.raises(ValueError):
        harmonic(0)


def test_measure_ratio_deterministic_optimal():
    inst = SetCoverInstance.from_edges(1, 5, [(0, t) for t in range(5)])
    report = measure_ratio(lambda t, e, r: f_approx_bucketed(t, e, r),
                           inst, 0.25, 20, derive_rng(1), bound=2.0)
    assert report.mean_ratio == 1.0
    assert report.opt == 1
    assert report.passed
    # an optimum of 0 is not divided by: every trial counts ratio 1
    empty = SetCoverInstance.from_edges(1, 0, [])
    report = measure_ratio(lambda t, e, r: f_approx_bucketed(t, e, r),
                           empty, 0.25, 5, derive_rng(1), bound=1.0)
    assert (report.opt, report.mean_ratio, report.ci95) == (0, 1.0, 0.0)
    assert report.passed


def test_measure_ratio_frequency_one_always_exact():
    inst = generate_random_instance(6, 24, 1, seed=8)
    report = measure_ratio(lambda t, e, r: f_approx_bucketed(t, e, r),
                           inst, 0.1, 30, derive_rng(2),
                           bound=f_approx_bound(inst, 0.1))
    assert report.mean_ratio == 1.0


def test_measure_ratio_frequency_three_bound():
    inst = generate_random_instance(16, 48, 3, seed=9)
    report = measure_ratio(lambda t, e, r: f_approx_bucketed(t, e, r),
                           inst, 0.1, 200, derive_rng(3),
                           bound=f_approx_bound(inst, 0.1))
    assert report.bound == pytest.approx(4.2)
    assert report.passed


def test_measure_ratio_matching_direction():
    hg = generate_random_hypergraph(12, 18, 2, seed=10)
    report = measure_ratio(lambda t, e, r: hypergraph_matching(t, e, r),
                           hg, 0.01, 100, derive_rng(4),
                           bound=matching_bound(hg, 0.01), maximize=True)
    assert report.passed


@pytest.mark.parametrize("trials", [0, -2])
def test_measure_ratio_rejects_fewer_than_one_trial(monkeypatch, trials):
    # raised before the exact oracle runs or the stream spawns its children
    def no_oracle(*args, **kwargs):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(oracle, "exact_min_cover", no_oracle)
    inst = generate_random_instance(10, 30, 2, seed=11)
    with pytest.raises(InvalidConfig, match=f"trials must be >= 1, got {trials}"):
        measure_ratio(lambda t, e, r: f_approx_bucketed(t, e, r),
                      inst, 0.25, trials, derive_rng(5), f_approx_bound(inst, 0.25))


def test_measure_ratio_takes_one_child_per_trial():
    # the children of rng.spawn(trials), in order, but spawned one at a
    # time, so no trial count holds every child at once
    inst = SetCoverInstance.from_edges(1, 1, [(0, 0)])
    seen = []

    def record(target, eps, child):
        seen.append(child.random())
        return Cover((0,)), None

    measure_ratio(record, inst, 0.25, 5, derive_rng(6), bound=1.0, opt=1)
    assert seen == [child.random() for child in derive_rng(6).spawn(5)]

    # each stub child holds 1 KiB, so spawning all 20,000 at once would
    # hold about 20 MB
    class HeavyChildren:
        def spawn(self, n):
            return [bytearray(1024) for _ in range(n)]

    tracemalloc.start()
    try:
        measure_ratio(lambda t, e, r: (Cover((0,)), None), inst, 0.25, 20_000,
                      HeavyChildren(), bound=1.0, opt=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_measure_ratio_holds_eight_bytes_per_trial():
    # the ratios are kept as doubles in an array; a list of Python floats
    # would take about 48 bytes a trial (9.6 MB here).  A stream whose children
    # cost nothing keeps the 200,000 trials quick under tracemalloc.
    class FreeChildren:
        def spawn(self, n):
            return [None] * n

    inst = SetCoverInstance.from_edges(1, 1, [(0, 0)])
    result = (Cover((0,)), None)
    tracemalloc.start()
    try:
        report = measure_ratio(lambda t, e, r: result, inst, 0.25, 200_000,
                               FreeChildren(), bound=1.0, opt=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (report.trials, report.mean_ratio, report.ci95) == (200_000, 1.0, 0.0)
    assert peak < 4 * 2 ** 20


def test_measure_ratio_rejects_workers():
    inst = generate_random_instance(10, 30, 2, seed=11)
    with pytest.raises(ValueError):
        measure_ratio(lambda t, e, r: f_approx_bucketed(t, e, r),
                      inst, 0.25, 40, derive_rng(5), f_approx_bound(inst, 0.25),
                      workers=2)
