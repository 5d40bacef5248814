"""Phase planner, phase-by-phase simulation, sparsification accounting,
sample-based size estimation, and best-of-many amplification."""

import math
import tracemalloc

import numpy as np
import pytest
from _reference import ref_degree_estimation, ref_max_ball, ref_plan_phases

from cover_sampler import mpc_sim
from cover_sampler import (InvalidConfig, InvalidEpsilon, f_approx_bucketed,
                           generate_random_hypergraph, generate_random_instance,
                           hypergraph_matching, plan_phases,
                           simulate_degree_estimation, simulate_mpc_f_approx,
                           verify_cover)
from cover_sampler.instance import Hypergraph, SetCoverInstance
from cover_sampler.mpc_sim import (DegreeBatch, amplify_to_whp,
                                  sparsify_non_isolated_counts)
from cover_sampler.oracle import exact_min_cover
from cover_sampler.util import derive_rng, guarded_floor, mean_ci95


def test_plan_lengths_partition_schedule():
    for delta in (2, 2 ** 6, 2 ** 12):
        plan = plan_phases(delta, 2, 0.25, 2 ** 20)
        assert sum(p.length for p in plan.phases) == plan.k + 1
        cap = math.ceil(math.log2(2 ** 20))
        assert all(1 <= p.length <= cap for p in plan.phases)
        assert plan.predicted_mpc_rounds == sum(
            math.ceil(math.log2(p.length)) + 2 for p in plan.phases)


def test_plan_small_delta_has_no_compression():
    plan = plan_phases(2, 3, 0.25, 2 ** 20)
    assert all(p.case_tag == 1 and p.length == 1 for p in plan.phases)
    assert plan.predicted_mpc_rounds == 2 * (plan.k + 1)


def test_plan_large_frequency_uses_case3():
    plan = plan_phases(2 ** 12, 2 ** 11, 0.25, 2 ** 20)
    assert any(p.case_tag == 3 for p in plan.phases)


def test_plan_compression_beats_step_count_growth():
    eps, f, n = 0.25, 2, 2 ** 20
    small = plan_phases(2 ** 8, f, eps, n)
    large = plan_phases(2 ** 16, f, eps, n)
    assert (large.predicted_mpc_rounds / small.predicted_mpc_rounds
            < (large.k + 1) / (small.k + 1))


def test_plan_rounds_concave_in_log_delta():
    eps, f, n = 0.25, 2, 2 ** 20
    rounds = [plan_phases(2 ** e, f, eps, n).predicted_mpc_rounds
              for e in (4, 10, 16)]
    assert rounds[1] - rounds[0] > rounds[2] - rounds[1]


def test_phase_simulation_matches_bucketed_solver():
    inst = generate_random_instance(40, 500, 3, seed=5)
    for seed in (0, 1, 7):
        direct, _ = f_approx_bucketed(inst, 0.25, derive_rng(seed))
        phased, report = simulate_mpc_f_approx(inst, 0.25, derive_rng(seed))
        assert direct == phased
        assert report.simulated_rounds > 0
        assert verify_cover(inst, phased)[0]


def test_plan_gate_beyond_float_range_leaves_every_step_in_case1():
    # (ln n)^(0.05 * eps^-2 * ln ln n) is beyond float range at eps 0.02
    plan = plan_phases(16, 2, 0.02, 2 ** 20)
    assert all(p.case_tag == 1 and p.length == 1 for p in plan.phases)
    assert [p.start_step for p in plan.phases] == list(range(plan.k, -1, -1))


def test_plan_matches_stepwise_reference():
    # eps 0.01 runs one delta and freq (k = 32870 steps): with n = 2^20 its
    # gate overflows, with n = 2 it is finite
    gates = set()
    for eps in (0.01, 0.05, 0.25, 0.5, math.sqrt(2) - 1):
        for n in ((2, 2 ** 20) if eps == 0.01 else (2, 38, 1000, 2 ** 20)):
            ln_n = math.log(n)
            try:
                gates.add(math.isinf(ln_n ** (mpc_sim.CASE1_EXPONENT_SCALE * eps ** -2
                                              * math.log(max(ln_n, 1.0 + 1e-12)))))
            except OverflowError:
                gates.add(True)
            grid = ([(1, 40)] if eps == 0.01 else
                    [(d, f) for d in (1, 16, 300) for f in (1, 40, 10 ** 5)])
            for delta, freq in grid:
                assert (plan_phases(delta, freq, eps, n)
                        == ref_plan_phases(delta, freq, eps, n))
    assert gates == {False, True}


def test_phase_simulation_at_small_eps_matches_bucketed_solver():
    # n = 38 puts the planner's gate beyond float range
    inst = generate_random_instance(8, 30, 2, seed=5)
    direct, _ = f_approx_bucketed(inst, 0.01, derive_rng(4))
    phased, report = simulate_mpc_f_approx(inst, 0.01, derive_rng(4))
    assert direct == phased
    assert all(rec.case_tag == 1 and rec.length == 1 for rec in report.phases)


def test_phase_report_shape():
    inst = generate_random_instance(30, 300, 2, seed=6)
    _, report = simulate_mpc_f_approx(inst, 0.25, derive_rng(3))
    assert report.phases
    assert report.phases[0].start_step >= report.phases[-1].start_step
    assert report.phases[-1].end_step == 0
    assert report.phases[-1].residual_degree_after == 0  # final step samples all
    cumulative = [rec.cumulative_rounds for rec in report.phases]
    assert cumulative == sorted(cumulative)
    assert cumulative[-1] == report.simulated_rounds
    for rec in report.phases:
        assert rec.relevant_elements <= rec.live_elements
        assert rec.max_ball >= 0


def _random_graph(rng):
    n = int(rng.integers(1, 40))
    density = rng.choice([0.0, 0.02, 0.05, 0.1, 0.3])
    adj = [[] for _ in range(n)]
    for v in range(n):
        for w in range(v + 1, n):
            if rng.random() < density:
                adj[v].append(w)
                adj[w].append(v)
    return adj


def _max_ball(adj, radius):
    """`mpc_sim._max_ball_size` on the graph of adjacency lists ``adj``."""
    edges = np.array([(v, w) for v, nbrs in enumerate(adj) for w in nbrs if v < w],
                     dtype=np.int64).reshape(-1, 2)
    return mpc_sim._max_ball_size(len(adj), edges[:, 0], edges[:, 1], radius)


@pytest.mark.parametrize("block", [None, 3], ids=["default-block", "block-3"])
def test_max_ball_matches_shortest_path_reference(monkeypatch, block):
    # a first batch of 3 sources takes every graph here with over 3 nodes
    # through several batches
    if block is not None:
        monkeypatch.setattr(mpc_sim, "_BALL_BATCH", block)
    for r in (1, 2, 5):
        assert _max_ball([], r) == 0
    rng = np.random.default_rng(42)
    for trial in range(200):
        adj = _random_graph(rng)
        # radius 1, a middle radius, and one at least the diameter
        radius = (1, int(rng.integers(2, 6)), len(adj))[trial % 3]
        assert _max_ball(adj, radius) == ref_max_ball(adj, radius)


def _phase_graphs(monkeypatch, inst, eps, rng):
    """(n, a, b, radius) of every ball the simulator measures."""
    graphs = []
    measure = mpc_sim._max_ball_size

    def capture(n, a, b, radius):
        graphs.append((n, a, b, radius))
        return measure(n, a, b, radius)

    with monkeypatch.context() as patch:
        patch.setattr(mpc_sim, "_max_ball_size", capture)
        simulate_mpc_f_approx(inst, eps, rng)
    return graphs


def _count_batches(monkeypatch, n, a, b, radius):
    """The ball of the graph and the number of source batches it took."""
    batches = []
    popcounts = mpc_sim._row_popcounts

    def count(words, scratch):
        batches.append(words.shape[1])
        return popcounts(words, scratch)

    with monkeypatch.context() as patch:
        patch.setattr(mpc_sim, "_row_popcounts", count)
        return mpc_sim._max_ball_size(n, a, b, radius), len(batches)


def _adjacency(n, a, b):
    adj = [[] for _ in range(n)]
    for v, w in zip(a.tolist(), b.tolist()):
        adj[v].append(w)
        adj[w].append(v)
    return adj


@pytest.mark.parametrize("block", [None, 16], ids=["default-block", "block-16"])
def test_max_ball_matches_reference_on_phase_graphs(monkeypatch, block):
    # the phase graphs of 300 to 3,000 nodes at eps 0.25 (532 to 1,791
    # nodes, radius 10 and 11) and 0.1 (radius 1); at the default batch the
    # largest takes several batches, and at 16 the batch reaches its cap
    inst = generate_random_instance(6000, 60000, 3, seed=4)
    graphs = [g for eps in (0.25, 0.1) for g in _phase_graphs(monkeypatch, inst, eps, derive_rng(2))
              if 300 <= g[0] <= 3000]
    if block is not None:
        monkeypatch.setattr(mpc_sim, "_BALL_BATCH", block)
    assert {g[3] == 1 for g in graphs} == {False, True}
    most = 0
    for n, a, b, radius in graphs:
        ball, batches = _count_batches(monkeypatch, n, a, b, radius)
        assert ball == ref_max_ball(_adjacency(n, a, b), radius)
        most = max(most, batches)
    assert most >= (2 if block is None else 6)


def _path(n):
    return np.arange(n - 1), np.arange(1, n)


def _star(n):
    return np.zeros(n - 1, dtype=np.int64), np.arange(1, n)


def _components(parts, size, seed):
    # equal random trees side by side
    rng = np.random.default_rng(seed)
    a = np.concatenate([p * size + rng.integers(0, np.arange(1, size)) for p in range(parts)])
    b = np.concatenate([p * size + np.arange(1, size) for p in range(parts)])
    return a, b


def _sparse(n, seed):
    # a random graph of average degree about 2.4, most of it one component
    rng = np.random.default_rng(seed)
    pairs = {tuple(sorted(e)) for e in rng.integers(0, n, (int(1.2 * n), 2)).tolist()
             if e[0] != e[1]}
    a, b = np.array(sorted(pairs)).T
    return a, b


@pytest.mark.parametrize("block", [None, 8], ids=["default-block", "block-8"])
@pytest.mark.parametrize("n,edges,radius", [
    (2000, _path(2000), 1),
    (2000, _path(2000), 7),
    (300, _path(300), 299),  # the radius is the diameter
    (1000, _star(1000), 1),
    (1000, _star(1000), 2),
    (1200, _components(6, 200, 1), 4),
    (1200, _components(6, 200, 1), 199),  # at least every tree's diameter
    (1000, _sparse(1000, 2), 3),
    (1000, _sparse(1000, 3), 6),
], ids=["path-r1", "path-r7", "path-diameter", "star-r1", "star-r2",
        "equal-trees-r4", "equal-trees-diameter", "sparse-r3", "sparse-r6"])
def test_max_ball_matches_reference_on_shaped_graphs(monkeypatch, block, n, edges, radius):
    if block is not None:
        monkeypatch.setattr(mpc_sim, "_BALL_BATCH", block)
    a, b = edges
    assert mpc_sim._max_ball_size(n, a, b, radius) == ref_max_ball(_adjacency(n, a, b), radius)


def test_max_ball_memory_is_linear_in_the_nodes(monkeypatch):
    # the largest phase graph of the m = 6e4 benchmark instance (3,263
    # nodes), measured in one batch of every source, so each node holds as
    # many bits as this graph allows: three word matrices of at most 512
    # bytes a node, plus 1 MiB for the unpacked bits and the edge arrays
    inst = generate_random_instance(2000, 20000, 3, seed=1)
    n, a, b, radius = max(_phase_graphs(monkeypatch, inst, 0.25, derive_rng(1, 0)),
                          key=lambda g: g[0])
    assert 3000 < n <= 4096
    monkeypatch.setattr(mpc_sim, "_BALL_BATCH", 4096)
    tracemalloc.start()
    try:
        ball = mpc_sim._max_ball_size(n, a, b, radius)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ball > 3000
    assert peak < 3 * n * 512 + 2 ** 20


def test_phase_records_seeded_values_pinned():
    # the first phase's ball (126) is smaller than its component (318 nodes)
    inst = generate_random_instance(250, 1500, 2, seed=5)
    _, report = simulate_mpc_f_approx(inst, 0.25, derive_rng(0))
    expected = [(11, 194, 200, 126), (11, 37, 47, 22), (10, 12, 21, 7),
                (9, 6, 9, 9), (9, 5, 10, 3), (9, 0, 0, 0), (5, 1, 2, 3)]
    expected += [(1, 0, 0, 0)] * 21
    assert [(rec.length, rec.relevant_elements, rec.nonisolated_sets, rec.max_ball)
            for rec in report.phases] == expected


def test_phase_degree_drop_invariant():
    inst = generate_random_instance(128, 2048, 3, seed=7)
    n_total = inst.num_sets + inst.num_elements
    ok_seeds = 0
    for seed in range(30):
        _, report = simulate_mpc_f_approx(inst, 0.25, derive_rng(100 + seed))
        if all(rec.residual_degree_after <= 8 * math.log(n_total) / rec.p_end
               for rec in report.phases):
            ok_seeds += 1
    assert ok_seeds >= 28


def test_empty_instance_phase_sim():
    inst = SetCoverInstance.from_edges(3, 0, [])
    cover, report = simulate_mpc_f_approx(inst, 0.25, derive_rng(0))
    assert cover.size == 0
    assert report.phases == []
    assert report.simulated_rounds == 0


def test_sparsify_extremes():
    hg = generate_random_hypergraph(20, 40, 3, seed=8)
    touched = len({v for e in hg.edges for v in e})
    for p, expected in ((0.0, 0), (1.0, touched)):
        counts = sparsify_non_isolated_counts(hg, p, 5, derive_rng(1))
        assert counts.tolist() == [expected] * 5


@pytest.mark.parametrize("edges", [0, 40])
def test_sparsify_rejects_negative_trials(edges):
    hg = generate_random_hypergraph(20, 40, 3, seed=8) if edges else Hypergraph.from_edges(3, [])
    with pytest.raises(InvalidConfig, match="trials"):
        sparsify_non_isolated_counts(hg, 0.5, -1, derive_rng(1))
    assert sparsify_non_isolated_counts(hg, 0.5, 0, derive_rng(1)).size == 0


def test_sparsify_expected_non_isolated_bound():
    hg = generate_random_hypergraph(30, 60, 3, seed=9)
    counts = sparsify_non_isolated_counts(hg, 0.1, 10_000, derive_rng(2))
    mean, ci = mean_ci95(counts)
    sem = ci / 1.959963984540054
    assert mean <= 0.1 * hg.avg_rank * len(hg.edges) + 3 * sem


def test_sparsify_mean_matches_exact_value():
    # vertex v stays non-isolated unless all deg(v) of its edges are dropped
    hg = generate_random_hypergraph(40, 70, 3, seed=11)
    p = 0.2
    degree = np.bincount([v for e in hg.edges for v in e],
                         minlength=hg.num_vertices)
    exact = float(np.sum(1.0 - (1.0 - p) ** degree))
    mean, ci = mean_ci95(sparsify_non_isolated_counts(hg, p, 20_000,
                                                      derive_rng(5)))
    assert abs(mean - exact) <= 3 * ci


def test_sparsify_counts_match_matrix_draw_in_bounded_memory():
    hg = generate_random_hypergraph(2000, 5000, 3, seed=12)
    trials, p = 400, 0.1
    tracemalloc.start()
    try:
        counts = sparsify_non_isolated_counts(hg, p, trials, derive_rng(6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the reference draws every trial's keep row in one trials x E matrix
    keep = derive_rng(6).random((trials, len(hg.edges))) < p
    expected = [len({v for e, kept in zip(hg.edges, row) if kept for v in e})
                for row in keep]
    assert counts.tolist() == expected
    # memory in proportion to the incidences, not to trials x E
    incidences = sum(len(e) for e in hg.edges)
    assert peak < 64 * incidences < keep.size


def test_degree_estimation_exact_regime():
    # small threshold level forces the sample rate to 1, so the estimates
    # equal the true residual sizes at every commit
    inst = generate_random_instance(20, 120, 3, seed=11)
    trace = simulate_degree_estimation(inst, 0.25, 0, derive_rng(5))
    assert trace.q == 1.0
    assert trace.batches
    for batch in trace.batches:
        assert batch.estimates == tuple(float(t) for t in batch.true_sizes)


def test_degree_estimation_running_minimum():
    # the pass keeps no per-step estimates; the per-set reference replays
    # the same draws and keeps them: its batches equal the pass's, and none
    # of its estimates ever rises
    inst = generate_random_instance(24, 200, 3, seed=12)
    level = 2
    trace = simulate_degree_estimation(inst, 0.25, level, derive_rng(6))
    batches, series = ref_degree_estimation(inst, 0.25, level, derive_rng(6))
    assert trace.batches == batches
    assert len(series) == trace.k + 1
    diffs = np.diff(np.array(series), axis=0)
    assert np.all(diffs <= 1e-9)


def test_degree_estimation_commits_large_sets():
    inst = generate_random_instance(64, 1200, 3, seed=13)
    eps = 0.25
    level = 6
    good = total = 0
    for seed in range(30):
        trace = simulate_degree_estimation(inst, eps, level, derive_rng(7, seed))
        for batch in trace.batches:
            total += 1
            if all(t >= (1 + eps) ** (level - 1) for t in batch.true_sizes):
                good += 1
    assert total > 0
    assert good / total >= 0.99


@pytest.mark.parametrize("level,expected", [
    (0, [DegreeBatch(step=15, set_ids=(2,), estimates=(10.0,), true_sizes=(10,)),
         DegreeBatch(step=12, set_ids=(3, 4, 7), estimates=(11.0, 9.0, 9.0),
                     true_sizes=(11, 9, 9)),
         DegreeBatch(step=11, set_ids=(0, 5), estimates=(1.0, 1.0),
                     true_sizes=(1, 1))]),
    (4, [DegreeBatch(step=15, set_ids=(2,), estimates=(10.0,), true_sizes=(10,)),
         DegreeBatch(step=12, set_ids=(5, 7), estimates=(8.0, 9.0),
                     true_sizes=(8, 9)),
         DegreeBatch(step=9, set_ids=(3,), estimates=(6.0,), true_sizes=(6,))]),
])
def test_degree_estimation_seeded_values_pinned(level, expected):
    inst = generate_random_instance(8, 30, 3, seed=20)
    trace = simulate_degree_estimation(inst, 0.5, level, derive_rng(4))
    assert trace.batches == expected
    assert trace.k == 15


def test_degree_estimation_pools_stay_near_their_own_size():
    # a single (k+1) x T float64 draw would alone take 8x the bool pools
    num_elements = 5000
    inst = SetCoverInstance.from_edges(
        3, num_elements, [(t % 3, t) for t in range(num_elements)])
    tracemalloc.start()
    try:
        trace = simulate_degree_estimation(inst, 0.1, 0, derive_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.batches
    assert peak < 3 * (trace.k + 1) * num_elements


def _same_state(a, b):
    # MT19937's state holds its key as an array
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _halves(num_elements):
    return SetCoverInstance.from_edges(
        2, num_elements, [(t % 2, t) for t in range(num_elements)])


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.PCG64DXSM])
def test_degree_estimation_pools_match_the_upfront_fill(bit_generator):
    # each pool row is drawn when its step runs (or none at q = 1, where the
    # estimates are re-read from the residuals only after a commit) and the
    # pass stops early, yet the batches are the upfront-fill reference's and
    # the caller's generator ends where the reference leaves it.  A buffered
    # 32-bit half from an earlier int32 draw must survive.
    halves = _halves(20000)
    cases = [(generate_random_instance(12, 80, 3, seed=s), 0.25, level)
             for s in range(2) for level in (0, 2)]
    cases += [(halves, 0.5, level) for level in (0, 21, 22)]
    # sampled rates on wide instances, one with every element in two sets,
    # so that a commit covers elements other sets still count
    cases += [(generate_random_instance(12, 60000, 1, seed=1), 0.5, 21)]
    cases += [(generate_random_instance(16, 60000, 2, seed=1), 0.5, level)
              for level in (21, 22)]
    # q = 1 at a level near half its cap (38 or 39): dozens of commits with
    # commit-free steps between them
    large = [(generate_random_instance(200, 2000, 3, seed=s), 0.05) for s in range(2)]
    cases += [(inst, eps, guarded_floor(math.log(inst.delta) / math.log1p(eps)) // 2)
              for inst, eps in large]
    q_values = []
    for seed, (inst, eps, level) in enumerate(cases):
        ours, theirs = (np.random.Generator(bit_generator(seed)) for _ in range(2))
        for g in (ours, theirs):
            g.integers(0, 5, dtype=np.int32)
        trace = simulate_degree_estimation(inst, eps, level, ours)
        batches, _ = ref_degree_estimation(inst, eps, level, theirs)
        assert trace.batches == batches
        assert _same_state(ours.bit_generator.state, theirs.bit_generator.state)
        # equal batches would not tell 10 from 10.0
        assert all(type(e) is float for b in trace.batches for e in b.estimates)
        q_values.append(trace.q)
        if eps == 0.05:
            # at least 20 commits and 20 commit-free steps between them
            span = trace.batches[0].step - trace.batches[-1].step + 1
            assert trace.q == 1.0 and len(trace.batches) >= 20
            assert span - len(trace.batches) >= 20
    assert min(q_values) < 0.6 and max(q_values) == 1.0


@pytest.mark.parametrize("bit_generator", [np.random.Philox, np.random.MT19937,
                                           np.random.SFC64])
def test_degree_estimation_refuses_generators_without_double_advance(bit_generator):
    # the upfront (k+1) x T pools such a generator would need take 4 MB
    # here; the refusal comes after the eps check and before anything is
    # sized or drawn
    inst = _halves(20000)
    rng = np.random.Generator(bit_generator(3))
    before = rng.bit_generator.state
    with pytest.raises(InvalidEpsilon):
        simulate_degree_estimation(inst, 0.0, 0, rng)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidConfig, match="PCG64 or PCG64DXSM"):
            simulate_degree_estimation(inst, 0.1, 0, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert _same_state(rng.bit_generator.state, before)


def test_degree_estimation_memory_does_not_follow_k_times_t():
    # eps 0.01 gives k = 32873 here; upfront pools over 2e4 elements would
    # take 657 MB
    num_elements = 20000
    inst = _halves(num_elements)
    tracemalloc.start()
    try:
        trace = simulate_degree_estimation(inst, 0.01, 0, derive_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.k > 30000 and trace.batches
    assert peak < 16 * 2 ** 20 < (trace.k + 1) * num_elements


def test_degree_estimation_level_range():
    inst = generate_random_instance(10, 40, 2, seed=14)
    with pytest.raises(ValueError):
        simulate_degree_estimation(inst, 0.25, 99, derive_rng(8))


def test_amplify_single_copy_matches_direct_run():
    inst = generate_random_instance(15, 60, 3, seed=15)
    best, counters, idx = amplify_to_whp(
        lambda t, e, r: f_approx_bucketed(t, e, r), inst, 0.25, 1, seed=21)
    direct, _ = f_approx_bucketed(inst, 0.25, derive_rng(21, 0))
    assert best == direct
    assert idx == 0


def test_amplify_best_of_never_worse_than_mean():
    inst = generate_random_instance(18, 70, 3, seed=16)
    copies = 10
    for seed in range(10):
        best, _, _ = amplify_to_whp(lambda t, e, r: f_approx_bucketed(t, e, r),
                                    inst, 0.25, copies, seed=seed)
        singles = [f_approx_bucketed(inst, 0.25, derive_rng(seed, c))[0].size
                   for c in range(copies)]
        assert best.size == min(singles)
        assert best.size <= np.mean(singles)


def test_amplify_matching_maximizes():
    hg = generate_random_hypergraph(18, 24, 2, seed=17)
    best, _, _ = amplify_to_whp(lambda t, e, r: hypergraph_matching(t, e, r),
                                hg, 0.1, 8, seed=3, maximize=True)
    singles = [hypergraph_matching(hg, 0.1, derive_rng(3, c))[0].size
               for c in range(8)]
    assert best.size == max(singles)


def test_amplify_keeps_covers_below_relaxed_threshold():
    eps = 0.1
    bad = 0
    for seed in range(20):
        inst = generate_random_instance(14, 45, 3, seed=300 + seed)
        opt = exact_min_cover(inst)
        copies = math.ceil(math.log(inst.num_sets + inst.num_elements) / eps)
        best, _, _ = amplify_to_whp(lambda t, e, r: f_approx_bucketed(t, e, r),
                                    inst, eps, copies, seed=seed)
        if best.size > (1 + 3 * eps) * inst.freq * opt:
            bad += 1
    assert bad == 0


def test_amplify_rejects_zero_copies():
    inst = generate_random_instance(5, 10, 2, seed=18)
    with pytest.raises(ValueError):
        amplify_to_whp(lambda t, e, r: f_approx_bucketed(t, e, r),
                       inst, 0.25, 0)


def test_amplify_validator_vetoes_candidates():
    inst = generate_random_instance(8, 24, 2, seed=19)
    sizes = [f_approx_bucketed(inst, 0.25, derive_rng(5, c))[0].size
             for c in range(6)]
    smallest = min(sizes)

    def veto_smallest(target, solution):
        return (solution.size != smallest, None)

    best, _, _ = amplify_to_whp(lambda t, e, r: f_approx_bucketed(t, e, r),
                                inst, 0.25, 6, seed=5, validator=veto_smallest)
    allowed = [s for s in sizes if s != smallest]
    assert best.size == (min(allowed) if allowed else sizes[-1])
    assert verify_cover(inst, best)[0]
