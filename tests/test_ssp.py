"""Sampling-process simulator: trace structure, adversaries, estimator
correctness (including cross-validation of the batch engine against the
step-faithful runner), and the deterministic step-level checks."""

import math

import numpy as np
import pytest

from cover_sampler import (AdaptiveKillOnNearMiss, Adversary,
                           DeleteSampledNeighbors, HalveEachStep, Identity,
                           InsufficientSamples, InsufficientTrials,
                           InvalidConfig, SspConfig, builtin_adversaries,
                           check_step_lemmas, estimate_conditional_multiplicity,
                           estimate_expected_rz, make_schedule, minimum_steps,
                           run_ssp)
from cover_sampler.schedule import probabilities
from cover_sampler.ssp import _batch_zr, _resolve_schedule
from cover_sampler.util import derive_rng, mean_ci95, proportion_ci95

# Adversaries with an independent per-item deletion rate, for the exact
# values; at a slow rate most items survive to the steps where the hazard's
# conditioning on no earlier sample matters
EXACT_CASES = pytest.mark.parametrize(
    "adv,rate", [(Identity(), 0.0), (DeleteSampledNeighbors(0.5), 0.5),
                 (DeleteSampledNeighbors(0.05), 0.05)],
    ids=["identity", "delete-sampled", "delete-sampled-slow"])


class KillEverythingEarly(Adversary):
    """Deletes the whole pool on the first shrink."""

    name = "kill-all"

    def shrink(self, sched, step, alive, rng, keep=None):
        return {keep} if keep is not None else set()


def test_trace_structure_identity():
    cfg = SspConfig(initial_size=30, eps=0.25, seed=3)
    trace = run_ssp(cfg)
    assert trace.z >= 0
    assert trace.r_z >= 1
    steps = [rec[0] for rec in trace.steps]
    assert steps == sorted(steps, reverse=True)
    sizes = [rec[1] for rec in trace.steps]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))  # non-increasing
    assert all(rec[2] <= rec[1] for rec in trace.steps)
    assert trace.steps[-1][0] == trace.z
    assert trace.steps[-1][2] == trace.r_z
    assert all(rec[2] == 0 for rec in trace.steps[:-1])


def test_kill_all_adversary_never_samples():
    hit_empty = 0
    for seed in range(40):
        trace = run_ssp(SspConfig(initial_size=5, eps=0.5,
                                  adversary=KillEverythingEarly(), seed=seed))
        if trace.steps[0][2] == 0:
            hit_empty += 1
            assert trace.z == -1
            assert trace.r_z == 0
    assert hit_empty > 0  # the first-step sample is empty most of the time


def test_single_item_always_sampled():
    for seed in range(30):
        trace = run_ssp(SspConfig(initial_size=1, eps=0.5, seed=seed))
        assert trace.z >= 0
        assert trace.r_z == 1


def test_estimators_enforce_trial_minimum():
    cfg = SspConfig(initial_size=10, eps=0.5)
    with pytest.raises(InsufficientTrials):
        estimate_expected_rz(cfg, 999)
    with pytest.raises(InsufficientTrials):
        estimate_conditional_multiplicity(cfg, 0, 10)
    # the trial count is checked before the marked id
    with pytest.raises(InsufficientTrials):
        estimate_conditional_multiplicity(cfg, 99, 10)


def test_expected_rz_single_item_exact():
    mean, ci = estimate_expected_rz(SspConfig(initial_size=1, eps=0.5, seed=1), 2000)
    assert mean == 1.0
    assert ci == 0.0


@pytest.mark.parametrize("name,expected", [
    ("identity", (1.139, 0.010522207584715716)),
    ("halve", (0.3912, 0.015227871393825382)),
    ("near-miss", (1.1252, 0.009961199145205223)),
])
def test_expected_rz_seeded_values_pinned(name, expected):
    # seeded estimates for size-trajectory adversaries are fixed bit for bit
    cfg = SspConfig(initial_size=40, eps=0.25,
                    adversary=builtin_adversaries()[name], seed=11)
    assert estimate_expected_rz(cfg, 5000) == expected


def test_expected_rz_identity_within_bound():
    cfg = SspConfig(initial_size=100, eps=0.1, seed=2)
    mean, ci = estimate_expected_rz(cfg, 100_000)
    assert mean - ci <= 1.4


def test_expected_rz_halve_within_bound():
    cfg = SspConfig(initial_size=50, eps=0.25, adversary=HalveEachStep(), seed=3)
    mean, ci = estimate_expected_rz(cfg, 100_000)
    assert mean - ci <= 2.0


def test_conditional_multiplicity_single_item_zero():
    p, ci = estimate_conditional_multiplicity(
        SspConfig(initial_size=1, eps=0.25, seed=4), 0, 5000)
    assert p == 0.0


def test_conditional_multiplicity_identity():
    cfg = SspConfig(initial_size=100, eps=0.05, seed=5)
    p, ci = estimate_conditional_multiplicity(cfg, 0, 200_000)
    assert p - ci <= 0.30


def test_conditional_multiplicity_deleting_adversary():
    cfg = SspConfig(initial_size=200, eps=0.1,
                    adversary=DeleteSampledNeighbors(0.5), seed=6)
    p, ci = estimate_conditional_multiplicity(cfg, 0, 200_000)
    assert p - ci <= 0.6


def test_marked_out_of_range():
    with pytest.raises(InvalidConfig):
        estimate_conditional_multiplicity(
            SspConfig(initial_size=5, eps=0.25), 7, 2000)


def test_near_miss_sequence_shrinks_after_trigger():
    adv = AdaptiveKillOnNearMiss()
    sched = make_schedule(0.25, minimum_steps(400, 0.25))
    seq = adv.size_sequence(sched, 400, protect=False)
    assert seq[sched.k] == 400
    assert seq[0] < 400  # the kill fired somewhere
    assert all(int(a) >= int(b) for a, b in
               zip(seq[::-1], seq[::-1][1:]))  # non-increasing over time


@pytest.mark.parametrize("protect", [False, True], ids=["unprotected", "protected"])
@pytest.mark.parametrize("adv", [HalveEachStep(), AdaptiveKillOnNearMiss()],
                         ids=["halve", "near-miss"])
def test_shrink_follows_size_sequence(adv, protect):
    """Shrinking ids step by step walks the size-only trajectory, and the
    protected item (the highest id, which a lowest-ids rule would drop)
    survives every step."""
    n = 400
    sched = make_schedule(0.25, minimum_steps(n, 0.25))
    seq = adv.size_sequence(sched, n, protect)
    keep = n - 1 if protect else None
    alive = set(range(n))
    rng = derive_rng(0)
    for i in range(sched.k - 1, -1, -1):
        shrunk = adv.shrink(sched, i, alive, rng, keep=keep)
        assert shrunk <= alive
        assert len(shrunk) == seq[i]
        assert not protect or keep in shrunk
        alive = shrunk
    assert seq[0] < n


@pytest.mark.parametrize("name", sorted(builtin_adversaries()))
def test_batch_engine_matches_direct_runs(name):
    """The closed-form estimators draw from the same law as the faithful
    step-by-step runner."""
    adv = builtin_adversaries()[name]
    direct = [run_ssp(SspConfig(initial_size=12, eps=0.5, adversary=adv,
                                seed=10_000 + t)).r_z
              for t in range(4000)]
    m_direct, ci_direct = mean_ci95(direct)
    m_batch, ci_batch = estimate_expected_rz(
        SspConfig(initial_size=12, eps=0.5, adversary=adv, seed=77), 60_000)
    assert abs(m_direct - m_batch) <= 3.0 * (ci_direct + ci_batch)


@pytest.mark.parametrize("name", sorted(builtin_adversaries()))
def test_batch_engine_matches_direct_runs_protected(name):
    """With the marked item protected, the conditional multiplicity agrees
    with the faithful runner's trials that sampled the marked item."""
    adv = builtin_adversaries()[name]
    traces = [run_ssp(SspConfig(initial_size=6, eps=0.5, adversary=adv,
                                seed=20_000 + t, marked=0))
              for t in range(4000)]
    accepted = [t.r_z > 1 for t in traces if t.contains_marked]
    p_direct, ci_direct = proportion_ci95(sum(accepted), len(accepted))
    p_batch, ci_batch = estimate_conditional_multiplicity(
        SspConfig(initial_size=6, eps=0.5, adversary=adv, seed=78), 0, 200_000)
    assert abs(p_direct - p_batch) <= 3.0 * (ci_direct + ci_batch)


def _exact_values(n, eps, rate):
    """(E[r_z], P(|R_z| > 1 given the marked item in R_z), P(marked item in
    R_z)) from the per-item law.  Each item's first-sample step X is
    independent with P(X = i) = q_i = (1-rate)^{k-i} p_i prod_{l>i}(1-p_l)
    (X is undefined if the item is deleted first); q0 is the law without
    deletion, which the protected item follows, and
    G(i) = P(X <= i) = 1 - sum_{l>i} q_l."""
    sched = make_schedule(eps, minimum_steps(n, eps))
    p = probabilities(sched)
    k = sched.k
    q0 = np.empty(k + 1)
    q = np.empty(k + 1)
    g = np.empty(k + 2)  # g[i + 1] = G(i), g[0] = G(-1)
    unsampled, mass = 1.0, 0.0
    for i in range(k, -1, -1):
        g[i + 1] = 1.0 - mass
        q0[i] = p[i] * unsampled
        q[i] = (1.0 - rate) ** (k - i) * q0[i]
        unsampled *= 1.0 - p[i]
        mass += q[i]
    g[0] = 1.0 - mass
    at, below = g[1:] ** (n - 1), g[:-1] ** (n - 1)
    expected_rz = n * float(np.sum(q * at))
    marked_share = float(np.sum(q0 * at))
    multiplicity = float(np.sum(q0 * (at - below))) / marked_share
    return expected_rz, multiplicity, marked_share


def _exact_marked_share(adv, n, eps):
    """P(marked item in R_z) with the marked item protected: it is sampled at
    step i, with chance p_i, after no sample landed above i.  For pool sizes
    n_j fixed in advance (marked item included) that is
    sum_i p_i prod_{j>i} (1-p_j)^{n_j}."""
    if isinstance(adv, DeleteSampledNeighbors):
        return _exact_values(n, eps, adv.rate)[2]
    sched = make_schedule(eps, minimum_steps(n, eps))
    sizes = adv.size_sequence(sched, n, protect=True)
    p = probabilities(sched)
    share, log_no_sample = 0.0, 0.0
    for i in range(sched.k, -1, -1):
        share += p[i] * math.exp(log_no_sample)
        if i:  # p_0 = 1: nothing lies below step 0, and log1p(-1) diverges
            log_no_sample += int(sizes[i]) * math.log1p(-p[i])
    return share


@EXACT_CASES
def test_batch_engine_matches_exact_value(adv, rate):
    eps, n = 0.25, 12
    _, exact, _ = _exact_values(n, eps, rate)
    p_hat, ci = estimate_conditional_multiplicity(
        SspConfig(initial_size=n, eps=eps, adversary=adv, seed=8), 0, 400_000)
    assert abs(p_hat - exact) <= max(3 * ci, 1e-3)


@EXACT_CASES
@pytest.mark.parametrize("n,eps", [(12, 0.25), (200, 0.1)])
def test_expected_rz_matches_exact_value(adv, rate, n, eps):
    exact, _, _ = _exact_values(n, eps, rate)
    mean, ci = estimate_expected_rz(
        SspConfig(initial_size=n, eps=eps, adversary=adv, seed=12), 200_000)
    assert abs(mean - exact) <= 3 * ci


@pytest.mark.parametrize("name", sorted(builtin_adversaries()))
@pytest.mark.parametrize("n,eps", [(12, 0.25), (200, 0.1)])
def test_marked_share_matches_exact_value(name, n, eps):
    """The share of protected-mode trials whose stop sample holds the marked
    item (the trials the conditional multiplicity accepts) is exact too."""
    adv = builtin_adversaries()[name]
    cfg = SspConfig(initial_size=n, eps=eps, adversary=adv)
    _, accepted = _batch_zr(cfg, _resolve_schedule(cfg), 200_000,
                            derive_rng(13), protect=True)
    share, ci = proportion_ci95(int(accepted.sum()), accepted.size)
    assert abs(share - _exact_marked_share(adv, n, eps)) <= 3 * ci


def test_estimators_refuse_an_adversary_without_a_stopping_law():
    # the estimators draw only from the exact stopping law; only run_ssp
    # runs such an adversary
    cfg = SspConfig(initial_size=6, eps=0.5, adversary=KillEverythingEarly(),
                    seed=9)
    with pytest.raises(InvalidConfig, match="'kill-all' has no stopping law"):
        estimate_expected_rz(cfg, 1000)
    with pytest.raises(InvalidConfig, match="'kill-all' has no stopping law"):
        estimate_conditional_multiplicity(cfg, 0, 1000)


def test_insufficient_samples_raised():
    # acceptance probability is about 1/n per trial, so with a huge pool and
    # the minimum trial count no trial has the marked item sampled
    cfg = SspConfig(initial_size=1_000_000, eps=0.5, seed=1)
    with pytest.raises(InsufficientSamples):
        estimate_conditional_multiplicity(cfg, 0, 1000)


def test_check_step_lemmas_constant_sequence():
    n = 40
    sched = make_schedule(0.25, minimum_steps(n, 0.25))
    report = check_step_lemmas(sched, [n] * (sched.k + 1))
    assert report.ok
    assert report.violations == ()


def test_check_step_lemmas_probability_one_step():
    n = 10
    sched = make_schedule(0.5, minimum_steps(n, 0.5))
    # at step 0 the sample equals the pool: conditional mean n <= 1 + n
    report = check_step_lemmas(sched, [n] * (sched.k + 1))
    assert report.ok


def test_check_step_lemmas_decreasing_sequence():
    n = 64
    sched = make_schedule(0.1, minimum_steps(n, 0.1))
    sizes = [max(1, n - idx // 4) for idx in range(sched.k + 1)]
    report = check_step_lemmas(sched, sizes)
    assert report.ok


def test_check_step_lemmas_validates_input():
    sched = make_schedule(0.5, minimum_steps(10, 0.5))
    with pytest.raises(ValueError):
        check_step_lemmas(sched, [10] * sched.k)  # wrong length
    with pytest.raises(ValueError):
        check_step_lemmas(sched, list(range(sched.k + 1)))  # increasing
    with pytest.raises(InvalidConfig):
        check_step_lemmas(make_schedule(0.5, 6), [10**6] * 7)  # k too short
