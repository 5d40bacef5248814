"""Cover solvers: validity, determinism, work counters, batch invariants,
and the distributional equivalence of the two frequency-solver variants."""

import tracemalloc

import pytest
from scipy.stats import ks_2samp

from cover_sampler import (Cover, f_approx_bucketed, f_approx_online,
                           generate_random_instance, hdelta_cover, parse_instance,
                           verify_cover)
from cover_sampler.cover import BatchRecord, CostCounters
from cover_sampler.instance import SetCoverInstance
from cover_sampler.util import derive_rng

SOLVERS = [f_approx_online, f_approx_bucketed, hdelta_cover]


@pytest.fixture(scope="module")
def small_instance():
    return generate_random_instance(15, 50, 3, seed=11)


def single_set_instance(num_elements=6):
    return SetCoverInstance.from_edges(1, num_elements,
                                       [(0, t) for t in range(num_elements)])


def disjoint_singletons(num_sets=5):
    return SetCoverInstance.from_edges(num_sets, num_sets,
                                       [(s, s) for s in range(num_sets)])


@pytest.mark.parametrize("solver", SOLVERS)
def test_single_covering_set(solver):
    inst = single_set_instance()
    cover, counters = solver(inst, 0.25, derive_rng(1))
    assert cover.chosen_sets == (0,)
    assert verify_cover(inst, cover) == (True, None)


@pytest.mark.parametrize("solver", SOLVERS)
def test_disjoint_singletons_forced_optimal(solver):
    inst = disjoint_singletons()
    cover, _ = solver(inst, 0.5, derive_rng(2))
    assert cover.size == inst.num_sets


@pytest.mark.parametrize("solver", SOLVERS)
def test_empty_instance(solver):
    inst = SetCoverInstance.from_edges(4, 0, [])
    cover, counters = solver(inst, 0.1, derive_rng(3))
    assert cover.size == 0
    assert counters.steps_executed == 0


@pytest.mark.parametrize("solver", SOLVERS)
def test_validity_over_seeds(solver, small_instance):
    for seed in range(60):
        cover, _ = solver(small_instance, 0.25, derive_rng(seed))
        ok, witness = verify_cover(small_instance, cover)
        assert ok, f"seed {seed} left element {witness} uncovered"


@pytest.mark.parametrize("solver", SOLVERS)
def test_deterministic_given_seed(solver, small_instance):
    a, _ = solver(small_instance, 0.1, derive_rng(42))
    b, _ = solver(small_instance, 0.1, derive_rng(42))
    assert a == b


def test_bucketed_validity_many_seeds(small_instance):
    # the final step has sampling probability 1, so every run must cover
    for seed in range(1000):
        cover, _ = f_approx_bucketed(small_instance, 0.5, derive_rng(9, seed))
        assert verify_cover(small_instance, cover)[0]


def test_bucketed_work_counters(small_instance):
    inst = small_instance
    for seed in range(50):
        _, counters = f_approx_bucketed(inst, 0.1, derive_rng(4, seed))
        assert counters.edge_touches <= 2 * inst.m
        assert counters.element_touches <= inst.num_elements + inst.m


def test_bucketed_counters_single_set():
    inst = single_set_instance()
    _, counters = f_approx_bucketed(inst, 0.25, derive_rng(5))
    assert counters.element_touches <= inst.num_elements + inst.m


def test_online_and_bucketed_same_distribution():
    inst = generate_random_instance(10, 40, 2, seed=77)
    runs = 4000
    online = [f_approx_online(inst, 0.1, derive_rng(1, t))[0].size
              for t in range(runs)]
    bucketed = [f_approx_bucketed(inst, 0.1, derive_rng(2, t))[0].size
                for t in range(runs)]
    assert ks_2samp(online, bucketed).statistic < 0.05


def test_hdelta_single_large_set_committed_at_top_level():
    inst = single_set_instance(num_elements=16)
    log = []
    cover, _ = hdelta_cover(inst, 0.25, derive_rng(7), batch_log=log)
    assert cover.size == 1
    assert len(log) == 1
    # floor(log_{1.25} 16) = 12
    assert log[0].level == 12
    assert log[0].min_committed_size == 16


def test_hdelta_batch_invariants(small_instance):
    eps = 0.1
    for seed in range(40):
        log: list[BatchRecord] = []
        cover, _ = hdelta_cover(small_instance, eps, derive_rng(8, seed),
                                batch_log=log)
        assert verify_cover(small_instance, cover)[0]
        for rec in log:
            assert rec.min_committed_size * (1 + eps) ** 2 >= \
                rec.max_live_size * (1 - 1e-9)
            assert all(m >= 1 for m in rec.cover_multiplicities)


def test_hdelta_batch_multiplicity_mean():
    # averaged over many runs, a newly covered element is covered by barely
    # more than one set of its committing batch
    eps = 0.1
    inst = generate_random_instance(12, 36, 3, seed=21)
    total = count = 0
    for run in range(10_000):
        log: list[BatchRecord] = []
        hdelta_cover(inst, eps, derive_rng(20, run), batch_log=log)
        for rec in log:
            total += sum(rec.cover_multiplicities)
            count += len(rec.cover_multiplicities)
    assert count > 0
    assert total / count <= 1 + 4 * eps + 3 / count ** 0.5


def test_hdelta_seeded_values_pinned():
    # chosen sets, all five counters and the batch log are fixed bit for bit;
    # the first batch commits three sets that share newly covered elements
    inst = generate_random_instance(8, 30, 3, seed=20)
    log: list[BatchRecord] = []
    cover, counters = hdelta_cover(inst, 0.5, derive_rng(4), batch_log=log)
    assert cover.chosen_sets == (0, 1, 3, 5)
    assert counters == CostCounters(element_touches=43, set_touches=108,
                                    edge_touches=139, steps_executed=9,
                                    rebucket_events=4)
    assert log == [
        BatchRecord(level=6, step=15, set_ids=(0, 1, 3), min_committed_size=12,
                    max_live_size=15,
                    cover_multiplicities=(2, 1, 3, 1, 2, 1, 2, 1, 1, 2, 1, 2,
                                          1, 2, 2, 1, 2, 1, 2, 1, 1, 2, 2, 1,
                                          1, 1, 1, 1)),
        BatchRecord(level=1, step=15, set_ids=(5,), min_committed_size=2,
                    max_live_size=2, cover_multiplicities=(1, 1)),
    ]


def test_hdelta_noisy_oracle_invariants(small_instance):
    eps, delta = 0.1, 0.1
    for seed in range(30):
        rng = derive_rng(9, seed)
        log: list[BatchRecord] = []
        cover, _ = hdelta_cover(small_instance, eps, rng, oracle_delta=delta,
                                batch_log=log)
        assert verify_cover(small_instance, cover)[0]
        for rec in log:
            assert rec.min_committed_size * (1 + eps) ** 2 * (1 + delta) >= \
                rec.max_live_size * (1 - 1e-9)


def test_hdelta_rebuckets_shrinking_sets():
    # two overlapping large sets: after one is taken the other shrinks
    edges = [(0, t) for t in range(8)] + [(1, t) for t in range(4, 12)]
    inst = SetCoverInstance.from_edges(2, 12, edges)
    total = 0
    for seed in range(30):
        _, counters = hdelta_cover(inst, 0.25, derive_rng(11, seed))
        total += counters.rebucket_events
    assert total > 0


def test_hdelta_noisy_peak_does_not_grow_with_rebucket_visits():
    # about 7,600 noisy estimates are rebucketed; the solve's peak stays that
    # of the exact solve, which has no noise to keep
    inst = generate_random_instance(2000, 20000, 3, seed=5)
    inst.set_rows, inst.element_rows  # the row caches are the instance's
    peaks, rebuckets = [], []
    for delta in (0.0, 0.3):
        hdelta_cover(inst, 0.1, derive_rng(1), oracle_delta=delta)
        tracemalloc.start()
        try:
            _, counters = hdelta_cover(inst, 0.1, derive_rng(1), oracle_delta=delta)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        rebuckets.append(counters.rebucket_events)
    assert min(rebuckets) > 5000
    assert peaks[1] < 1.25 * peaks[0] + 2 ** 16


def test_verify_cover_reports_witness():
    inst = parse_instance("p sc 2 3 4\ne 0 0\ne 0 1\ne 1 1\ne 1 2")
    assert verify_cover(inst, Cover(())) == (False, 0)
    assert verify_cover(inst, Cover((0, 1))) == (True, None)
    assert verify_cover(inst, Cover((1,))) == (False, 0)
    assert verify_cover(inst, Cover((0,))) == (False, 2)
    with pytest.raises(ValueError):
        verify_cover(inst, Cover((5,)))
