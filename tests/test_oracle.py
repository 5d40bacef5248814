"""Exact oracles (with an oracle-vs-oracle cross-check), greedy, harmonic
numbers, and the ratio harness."""

import pytest

from cover_sampler import (TooLarge, exact_max_matching, exact_min_cover,
                           f_approx_bucketed, f_approx_bound,
                           generate_random_hypergraph, generate_random_instance,
                           greedy_cover, harmonic, hypergraph_matching,
                           matching_bound, measure_ratio, verify_cover)
from cover_sampler.instance import Hypergraph, SetCoverInstance
from cover_sampler.oracle import exhaustive_min_cover
from cover_sampler.util import derive_rng


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


def test_measure_ratio_rejects_workers():
    inst = generate_random_instance(10, 30, 2, seed=11)
    with pytest.raises(ValueError):
        measure_ratio(lambda t, e, r: f_approx_bucketed(t, e, r),
                      inst, 0.25, 40, derive_rng(5), f_approx_bound(inst, 0.25),
                      workers=2)
