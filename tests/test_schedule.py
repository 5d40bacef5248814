"""Schedule arithmetic, its invariants over a parameter grid, and the alias
sampler's distributional correctness."""

import math

import numpy as np
import pytest
from _reference import ref_bucket_distribution
from scipy import stats

from cover_sampler import (InvalidConfig, InvalidEpsilon, bucket_distribution, build_alias,
                           compute_b, make_schedule, probabilities, probability,
                           sample_alias, schedule_for_frequency,
                           schedule_for_max_size, schedule_length_outer)
from cover_sampler import schedule
from cover_sampler.schedule import MAX_STEPS, alias_for_schedule, step_groups
from cover_sampler.util import derive_rng

GRID_EPS = (0.05, 0.1, 0.25, 0.5)


@pytest.mark.parametrize("eps,expected", [(0.5, 3), (0.1, 8), (0.25, 4)])
def test_compute_b_values(eps, expected):
    assert compute_b(eps) == expected


@pytest.mark.parametrize("eps", [0.0, -0.1, 0.51, 0.9, 2.0])
def test_eps_out_of_range_rejected(eps):
    with pytest.raises(InvalidEpsilon):
        compute_b(eps)


def test_probability_values():
    sched = make_schedule(0.5, 21)
    assert probability(0, sched) == 1.0
    assert probability(sched.b, sched) == pytest.approx(1 / 1.5)
    assert probability(7, sched) == pytest.approx(0.296296, abs=1e-6)
    with pytest.raises(IndexError):
        probability(22, sched)
    with pytest.raises(IndexError):
        probability(-1, sched)


def test_probabilities_vector_matches_scalar():
    sched = make_schedule(0.25, 40)
    vec = probabilities(sched)
    assert vec.shape == (41,)
    for i in range(41):
        assert vec[i] == pytest.approx(probability(i, sched))


@pytest.mark.parametrize("delta,eps,expected", [(1, 0.5, 6), (8, 0.5, 21),
                                                (2, 0.5, 12)])
def test_outer_length_values(delta, eps, expected):
    assert schedule_length_outer(delta, eps) == expected


@pytest.mark.parametrize("freq,eps,expected", [(1, 0.5, 6), (2, 0.5, 12)])
def test_inner_length_values(freq, eps, expected):
    assert schedule_for_frequency(freq, eps).k == expected


@pytest.mark.parametrize("eps", GRID_EPS)
@pytest.mark.parametrize("delta", [1, 2, 7, 50, 1000])
def test_final_probability_small_enough(delta, eps):
    k = schedule_length_outer(delta, eps)
    sched = make_schedule(eps, k)
    assert probability(k, sched) * delta <= eps * (1 + 1e-12)


@pytest.mark.parametrize("eps", GRID_EPS)
@pytest.mark.parametrize("delta", [3, 64, 500])
def test_low_initial_and_slow_increase(delta, eps):
    sched = schedule_for_max_size(delta, eps)
    p = probabilities(sched)
    k, b = sched.k, sched.b
    # last b steps keep the expected sample count below eps
    for j in range(k - b + 1, k + 1):
        assert p[j] * delta <= eps * (1 + 1e-12)
    # probabilities rise by exactly (1+eps) every b steps, never faster
    for i in range(0, k - b + 1):
        assert p[i] <= (1 + eps) * p[i + b] * (1 + 1e-12)
    assert np.all(np.diff(p) <= 1e-15)  # non-increasing in the step index


def test_bucket_distribution_degenerate():
    sched = make_schedule(0.3, 0)
    assert bucket_distribution(sched).tolist() == [1.0]


def test_bucket_distribution_sums_to_one():
    sched = schedule_for_max_size(50, 0.3)
    probs = bucket_distribution(sched)
    assert abs(probs.sum() - 1.0) <= 1e-12
    assert np.all(probs >= 0) and np.all(probs <= 1)


@pytest.mark.parametrize("eps", (0.01, 0.05, 0.1, 0.25, 0.5))
def test_bucket_distribution_matches_loop_bitwise(eps):
    scheds = [make_schedule(eps, k) for k in range(30)]
    scheds += [schedule_for_max_size(delta, eps) for delta in (1, 2, 7, 100)]
    for sched in scheds:
        assert bucket_distribution(sched).tobytes() == ref_bucket_distribution(sched).tobytes()


def test_bucket_distribution_last_entry():
    sched = make_schedule(0.5, 6)
    probs = bucket_distribution(sched)
    assert probs[6] == pytest.approx(1.5 ** -2)


def test_alias_single_weight():
    table = build_alias([1.0])
    assert sample_alias(table, derive_rng(0), size=50).tolist() == [0] * 50


def test_alias_rejects_bad_weights():
    with pytest.raises(ValueError):
        build_alias([0.0, 0.0])
    with pytest.raises(ValueError):
        build_alias([1.0, -0.5])
    with pytest.raises(ValueError):
        build_alias([])


def test_alias_two_equal_weights_balanced():
    table = build_alias([1.0, 1.0])
    draws = sample_alias(table, derive_rng(1), size=100_000)
    freq = (draws == 0).mean()
    sigma = math.sqrt(0.25 / 100_000)
    assert abs(freq - 0.5) <= 3 * sigma


def _chi2_pvalue(draws, probs):
    obs = np.bincount(draws, minlength=len(probs)).astype(float)
    exp = probs * len(draws)
    keep = exp >= 5
    if (~keep).any():
        obs = np.append(obs[keep], obs[~keep].sum())
        exp = np.append(exp[keep], exp[~keep].sum())
    return stats.chisquare(obs, exp * obs.sum() / exp.sum()).pvalue


def test_alias_matches_bucket_distribution():
    sched = schedule_for_max_size(8, 0.5)
    probs = bucket_distribution(sched)
    table = alias_for_schedule(sched)
    draws = sample_alias(table, derive_rng(2), size=1_000_000)
    assert _chi2_pvalue(draws, probs) > 0.001


def test_alias_deterministic_given_seed():
    sched = schedule_for_max_size(32, 0.25)
    table = alias_for_schedule(sched)
    a = sample_alias(table, derive_rng(3), size=1000)
    b = sample_alias(table, derive_rng(3), size=1000)
    assert np.array_equal(a, b)


def as_lists(groups):
    """``(step, ids)`` pairs with every group as a list of ints, whichever
    form `step_groups` returned."""
    return [(i, np.asarray(ids, dtype=np.int64).tolist()) for i, ids in groups]


@pytest.mark.parametrize("count", [0, 1, 500, 5000])
def test_step_groups_partition_one_alias_draw(count):
    sched = schedule_for_max_size(32, 0.25)
    rng, ref_rng = derive_rng(3), derive_rng(3)
    groups = as_lists(step_groups(sched, rng, count))
    draws = sample_alias(alias_for_schedule(sched), ref_rng, size=count)
    # the same stream, consumed to the same point
    assert rng.random() == ref_rng.random()
    steps = [i for i, _ in groups]
    assert steps == sorted(set(draws.tolist()), reverse=True)
    for i, ids in groups:
        assert ids == np.flatnonzero(draws == i).tolist()
    assert sorted(t for _, ids in groups for t in ids) == list(range(count))


GROUP_COUNTS = (0, 1, schedule._GROUP_SORT_MIN - 1, schedule._GROUP_SORT_MIN,
                schedule._GROUP_SORT_MIN + 1, 200_000)


# k = 88 and 2160 sort a uint16 key, k = 82218 and 65536 an int64 one
@pytest.mark.parametrize("sched", [schedule_for_max_size(32, 0.25),
                                   schedule_for_max_size(54, 0.05),
                                   schedule_for_max_size(1000, 0.01),
                                   make_schedule(0.1, 2 ** 16)], ids=lambda s: f"k{s.k}")
def test_step_groups_sort_and_dict_paths_agree(monkeypatch, sched):
    for count in GROUP_COUNTS:
        got = {}
        for name, crossover in (("sort", 0), ("dict", 10 ** 9)):
            monkeypatch.setattr(schedule, "_GROUP_SORT_MIN", crossover)
            rng = derive_rng(11, count)
            got[name] = (step_groups(sched, rng, count), rng.random())
        assert isinstance(got["sort"][0], schedule.StepPartition)
        assert isinstance(got["dict"][0], list)
        assert (as_lists(got["sort"][0]), got["sort"][1]) == got["dict"], count
        assert len(got["sort"][0]) == len(got["dict"][0])


@pytest.mark.parametrize("count", [0, 5, schedule._GROUP_SORT_MIN, 3000])
def test_step_groups_relabel_given_ids(count):
    # the ids come back in the groups of their positions, in the given order
    sched = schedule_for_max_size(54, 0.05)
    ids = [7 * t + 3 for t in range(count)][::-1]
    plain = as_lists(step_groups(sched, derive_rng(12), count))
    labelled = as_lists(step_groups(sched, derive_rng(12), count, ids))
    assert labelled == [(i, [ids[t] for t in group]) for i, group in plain]


def test_outer_length_rejects_size_beyond_float_range():
    with pytest.raises(InvalidConfig, match="beyond float range"):
        schedule_length_outer(2 ** 1100, 0.25)
    # converts to a float, but the division overflows to inf
    with pytest.raises(InvalidConfig, match="beyond float range"):
        schedule_length_outer(2 ** 1022, 0.25)
    assert schedule_length_outer(2 ** 1000, 0.25) > 0


def test_schedule_longer_than_max_steps_is_refused():
    assert make_schedule(0.25, MAX_STEPS).k == MAX_STEPS
    with pytest.raises(InvalidConfig, match="MAX_STEPS"):
        make_schedule(0.25, MAX_STEPS + 1)
    with pytest.raises(InvalidConfig, match="MAX_STEPS"):
        schedule_for_max_size(54, 1e-300)
    # the longest schedule the package's own runs reach: calibrated eps 0.01
    assert schedule_length_outer(54, 0.01 / 4) < MAX_STEPS


@pytest.mark.parametrize("eps, accepted, refused", [(1e-3, 10 ** 17, 10 ** 18), (5e-4, 88, 89)])
def test_max_steps_admits_eps_1e_3_at_any_practical_size(eps, accepted, refused):
    # the largest sizes a schedule accepts at two small eps (at 1e-3, to a
    # power of ten), so calibrated runs at eps 0.004 keep working
    assert schedule_for_max_size(accepted, eps).k <= MAX_STEPS
    assert schedule_for_frequency(accepted, eps).k <= MAX_STEPS
    with pytest.raises(InvalidConfig, match="MAX_STEPS"):
        schedule_for_max_size(refused, eps)
