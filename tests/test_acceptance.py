"""Acceptance suite: one test per criterion, each printing a PASS line with
its headline numbers and asserting the stated tolerance and runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""

import math
import time
from collections import defaultdict

import numpy as np
import pytest
from scipy.stats import ks_2samp

from cover_sampler import (SspConfig, builtin_adversaries, bucket_distribution, compute_b,
                           estimate_conditional_multiplicity,
                           estimate_expected_rz, exact_max_matching,
                           exact_min_cover, f_approx_bucketed, f_approx_online,
                           generate_random_instance, harmonic, hdelta_cover,
                           hypergraph_matching, make_schedule, plan_phases,
                           probability, schedule_for_max_size,
                           simulate_mpc_f_approx, verify_cover, verify_matching)
from cover_sampler.corpus import (build_cover_corpus, build_matching_corpus,
                                  build_sparsification_hypergraphs)
from cover_sampler.mpc_sim import sparsify_non_isolated_counts
from cover_sampler.util import derive_rng, mean_ci95

EPS_GRID = (0.05, 0.1, 0.25, 0.5)
N_GRID = (10, 100, 1000)


@pytest.fixture(scope="module")
def cover_corpus():
    corpus = build_cover_corpus(count=100)
    opts = [exact_min_cover(inst) for inst in corpus]
    return corpus, opts


def _report(name, elapsed, budget, detail):
    print(f"\nACCEPTANCE {name}: PASS ({elapsed:.1f}s < {budget:.0f}s) {detail}")


def test_criterion_01_schedule_exactness():
    t0 = time.time()
    assert compute_b(0.5) == 3
    assert compute_b(0.1) == 8
    assert compute_b(0.25) == 4
    sched = make_schedule(0.5, 21)
    assert probability(0, sched) == 1.0
    assert probability(3, sched) == pytest.approx(1 / 1.5)
    assert probability(7, sched) == pytest.approx(0.296296, abs=1e-6)
    assert bucket_distribution(make_schedule(0.5, 6))[6] == pytest.approx(4 / 9)
    for eps in EPS_GRID:
        for delta in (1, 8, 50, 4096):
            sched = schedule_for_max_size(delta, eps)
            probs = bucket_distribution(sched)
            assert abs(probs.sum() - 1.0) <= 1e-12
    elapsed = time.time() - t0
    assert elapsed < 1
    _report("1 schedule exactness", elapsed, 1, "hand-derived values and sums ok")


def test_criterion_02_expected_sample_size_grid():
    t0 = time.time()
    worst = (math.inf, None)
    cell = 0
    for eps in EPS_GRID:
        bound = 1 + 4 * eps
        for n in N_GRID:
            for name, adv in builtin_adversaries().items():
                cell += 1
                cfg = SspConfig(initial_size=n, eps=eps, adversary=adv,
                                seed=9000 + cell)
                mean, ci = estimate_expected_rz(cfg, 100_000)
                margin = bound - (mean - ci)
                if margin < worst[0]:
                    worst = (margin, (eps, n, name, round(mean, 4)))
                assert mean - ci <= bound, (eps, n, name, mean, ci)
    elapsed = time.time() - t0
    assert elapsed < 120
    _report("2 expected sample size", elapsed, 120,
            f"48 cells x 1e5 trials, tightest margin {worst[0]:.3f} at {worst[1]}")


def test_criterion_03_conditional_multiplicity_grid():
    t0 = time.time()
    worst = (math.inf, None)
    cell = 0
    for eps in [e for e in EPS_GRID if e <= 0.25]:
        bound = 6 * eps
        for n in N_GRID:
            for name, adv in builtin_adversaries().items():
                cell += 1
                cfg = SspConfig(initial_size=n, eps=eps, adversary=adv,
                                seed=11_000 + cell)
                p_hat, ci = estimate_conditional_multiplicity(cfg, 0, 1_000_000)
                margin = bound - (p_hat - ci)
                if margin < worst[0]:
                    worst = (margin, (eps, n, name, round(p_hat, 4)))
                assert p_hat - ci <= bound, (eps, n, name, p_hat, ci)
    elapsed = time.time() - t0
    assert elapsed < 600
    _report("3 conditional multiplicity", elapsed, 600,
            f"36 cells x 1e6 trials, tightest margin {worst[0]:.3f} at {worst[1]}")


def test_criterion_04_frequency_factor_guarantee(cover_corpus):
    t0 = time.time()
    corpus, opts = cover_corpus
    eps, runs = 0.1, 200
    ratios = defaultdict(list)
    invalid = 0
    for idx, (inst, opt) in enumerate(zip(corpus, opts)):
        for run in range(runs):
            cover, _ = f_approx_bucketed(inst, eps, derive_rng(400, idx, run))
            if not verify_cover(inst, cover)[0]:
                invalid += 1
            ratios[inst.freq].append(cover.size / opt)
    assert invalid == 0
    detail = []
    for f, rs in sorted(ratios.items()):
        mean, _ = mean_ci95(rs)
        bound = (1 + 4 * eps) * f
        assert mean <= bound, (f, mean, bound)
        detail.append(f"f={f}: {mean:.2f}<={bound:.1f}")
    elapsed = time.time() - t0
    assert elapsed < 300
    _report("4 frequency-factor guarantee", elapsed, 300,
            f"100 instances x {runs} runs, all valid; " + ", ".join(detail))


def test_criterion_05_size_threshold_guarantee(cover_corpus):
    t0 = time.time()
    corpus, opts = cover_corpus
    eps, noise = 0.1, 0.1
    normalized = []
    for idx, (inst, opt) in enumerate(zip(corpus, opts)):
        h_delta = harmonic(inst.delta)
        for run in range(200):
            log = []
            cover, _ = hdelta_cover(inst, eps, derive_rng(500, idx, run),
                                    batch_log=log)
            assert verify_cover(inst, cover)[0]
            normalized.append(cover.size / (opt * h_delta))
            for rec in log:
                assert rec.min_committed_size * (1 + eps) ** 2 >= \
                    rec.max_live_size * (1 - 1e-9)
    mean, _ = mean_ci95(normalized)
    bound = (1 + eps) * (1 + 4 * eps)
    assert mean <= bound
    noisy = []
    for idx, (inst, opt) in enumerate(zip(corpus, opts)):
        h_delta = harmonic(inst.delta)
        for run in range(50):
            rng = derive_rng(501, idx, run)
            log = []
            cover, _ = hdelta_cover(inst, eps, rng, oracle_delta=noise, batch_log=log)
            assert verify_cover(inst, cover)[0]
            noisy.append(cover.size / (opt * h_delta))
            for rec in log:
                assert rec.min_committed_size * (1 + eps) ** 2 * (1 + noise) >= \
                    rec.max_live_size * (1 - 1e-9)
    mean_noisy, _ = mean_ci95(noisy)
    bound_noisy = (1 + eps) * (1 + noise) * (1 + 4 * eps)
    assert mean_noisy <= bound_noisy
    elapsed = time.time() - t0
    assert elapsed < 300
    _report("5 size-threshold guarantee", elapsed, 300,
            f"exact {mean:.3f}<={bound:.3f}, noisy {mean_noisy:.3f}<={bound_noisy:.3f}, "
            "batch ratio invariant on every batch")


def test_criterion_06_matching_guarantee():
    t0 = time.time()
    eps, runs = 0.01, 200
    details = []
    for idx, hg in enumerate(build_matching_corpus()):
        opt = exact_max_matching(hg)
        sizes = []
        for run in range(runs):
            matching, _ = hypergraph_matching(hg, eps, derive_rng(600, idx, run))
            assert verify_matching(hg, matching)[0]
            sizes.append(matching.size)
        mean, ci = mean_ci95(sizes)
        bound = (1 - 6 * eps * hg.rank) / hg.rank * opt
        assert mean + ci >= bound, (idx, mean, bound)
        details.append(f"h={hg.rank}:{mean:.2f}>={bound:.2f}")
    elapsed = time.time() - t0
    assert elapsed < 300
    _report("6 matching guarantee", elapsed, 300,
            f"{runs} runs per hypergraph, all valid; " + " ".join(details))


def test_criterion_07_sparsification_bound():
    t0 = time.time()
    cells = 0
    for p in (0.05, 0.1, 0.3):
        for idx, hg in enumerate(build_sparsification_hypergraphs()):
            counts = sparsify_non_isolated_counts(hg, p, 10_000,
                                                  derive_rng(700, idx, int(p * 100)))
            mean, ci = mean_ci95(counts)
            sem = ci / 1.959963984540054
            bound = p * hg.avg_rank * len(hg.edges)
            assert mean <= bound + 3 * sem, (p, idx, mean, bound)
            cells += 1
    elapsed = time.time() - t0
    assert elapsed < 60
    _report("7 sparsification bound", elapsed, 60,
            f"{cells} cells x 1e4 trials within mean bound + 3 sigma")


def test_criterion_08_work_invariants(cover_corpus):
    t0 = time.time()
    corpus, _ = cover_corpus
    for idx, inst in enumerate(corpus):
        for run in range(10):
            _, counters = f_approx_bucketed(inst, 0.25, derive_rng(800, idx, run))
            assert counters.edge_touches <= 2 * inst.m
            assert counters.element_touches <= inst.num_elements + inst.m
    ratios = []
    for exp in (4, 6, 8, 10, 12):
        num_sets, freq = 20, 2
        num_elements = (2 ** exp) * num_sets // freq
        inst = generate_random_instance(num_sets, num_elements, freq, seed=exp)
        _, counters = hdelta_cover(inst, 0.25, derive_rng(801, exp))
        ratios.append(counters.set_touches /
                      (inst.num_sets + inst.num_elements + inst.m))
    spread = max(ratios) / min(ratios)
    assert spread < 4
    elapsed = time.time() - t0
    assert elapsed < 120
    _report("8 work invariants", elapsed, 120,
            f"edge touches <= 2m everywhere; set-touch ratio spread {spread:.2f} < 4 "
            f"across max set sizes 2^4..2^12")


def test_criterion_09_online_bucketed_equivalence():
    t0 = time.time()
    inst = generate_random_instance(10, 40, 2, seed=77)
    runs = 10_000
    online = [f_approx_online(inst, 0.1, derive_rng(900, t))[0].size
              for t in range(runs)]
    bucketed = [f_approx_bucketed(inst, 0.1, derive_rng(901, t))[0].size
                for t in range(runs)]
    distance = ks_2samp(online, bucketed).statistic
    assert distance < 0.05
    elapsed = time.time() - t0
    assert elapsed < 60
    _report("9 online/bucketed equivalence", elapsed, 60,
            f"KS distance {distance:.4f} < 0.05 over 1e4 runs each")


def test_criterion_10_mpc_scaling_and_degree_drop():
    t0 = time.time()
    eps, freq, n = 0.25, 2, 2 ** 20
    exps = (4, 6, 8, 10, 12, 14, 16)
    rounds = np.array([plan_phases(2 ** e, freq, eps, n).predicted_mpc_rounds
                       for e in exps], dtype=float)
    x = np.array([math.log(2.0 ** e) for e in exps])

    def residual(features):
        design = np.column_stack([features, np.ones_like(features)])
        coef, *_ = np.linalg.lstsq(design, rounds, rcond=None)
        return float(np.linalg.norm(rounds - design @ coef))

    res_sqrt = residual(np.sqrt(x))
    res_linear = residual(x)
    assert res_sqrt < res_linear, (res_sqrt, res_linear)

    inst = generate_random_instance(256, 4096, 3, seed=99)
    n_total = inst.num_sets + inst.num_elements
    ok_seeds = 0
    for seed in range(100):
        cover, report = simulate_mpc_f_approx(inst, eps, derive_rng(1000 + seed))
        assert verify_cover(inst, cover)[0]
        if all(rec.residual_degree_after <= 8 * math.log(n_total) / rec.p_end
               for rec in report.phases):
            ok_seeds += 1
    assert ok_seeds >= 95
    elapsed = time.time() - t0
    assert elapsed < 180
    _report("10 mpc scaling trend", elapsed, 180,
            f"sqrt-fit residual {res_sqrt:.2f} < linear {res_linear:.2f}; "
            f"degree drop ok on {ok_seeds}/100 seeds")
