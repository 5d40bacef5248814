"""Schedule arithmetic, its invariants over a parameter grid, and the alias
sampler's distributional correctness."""

import math
import tracemalloc

import numpy as np
import pytest
from _reference import ref_bucket_distribution, ref_buckets
from scipy import stats

from cover_sampler import (InvalidConfig, InvalidEpsilon, bucket_distribution, build_alias,
                           compute_b, make_schedule, probabilities, probability,
                           sample_alias, schedule_for_frequency,
                           schedule_for_max_size, schedule_length_outer)
from cover_sampler import schedule
from cover_sampler.schedule import (MAX_STEPS, alias_for_schedule, plateau_probabilities,
                                    step_groups)
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


def ref_groups(table, rng, count, ids=None):
    """`step_groups`' small form from `sample_alias` and `ref_buckets`."""
    buckets = ref_buckets(sample_alias(table, rng, size=count))
    label = list(range(count)) if ids is None else ids
    return [(i, [label[t] for t in buckets[i]]) for i in sorted(buckets, reverse=True)]


# k = 88 sits below 2^16 and k = 82218 above it
SMALL_PATH_SCHEDULES = [schedule_for_max_size(32, 0.25), schedule_for_max_size(1000, 0.01)]


@pytest.mark.parametrize("bitgen", [np.random.PCG64, np.random.PCG64DXSM])
@pytest.mark.parametrize("sched", SMALL_PATH_SCHEDULES, ids=lambda s: f"k{s.k}")
@pytest.mark.parametrize("count", [0, 1, 2, 37, schedule._GROUP_SORT_MIN - 1])
def test_step_groups_small_path_matches_sample_alias(bitgen, sched, count):
    # the same groups in the same order, with and without ids, from the same
    # two rng calls: the streams end at the same point
    table = alias_for_schedule(sched)
    ids = [3 * t + 1 for t in range(count)][::-1]
    for given in (None, ids):
        rng, ref_rng = (np.random.Generator(bitgen(5 + count)) for _ in range(2))
        got = step_groups(sched, rng, count, given)
        assert isinstance(got, list)
        assert got == ref_groups(table, ref_rng, count, given)
        assert rng.random() == ref_rng.random()


class BoundaryDraws:
    """Stands in for a generator whose every uniform equals the threshold
    of the slot drawn with it, so each pick sits on the boundary of the
    alias test: ``u < threshold`` keeps the alias."""

    def __init__(self, table):
        self.thresholds = table.thresholds
        self.slots = None

    def integers(self, low, high, size):
        self.slots = np.arange(size) % high
        return self.slots

    def random(self, size):
        return self.thresholds[self.slots]


@pytest.mark.parametrize("sched", SMALL_PATH_SCHEDULES, ids=lambda s: f"k{s.k}")
def test_step_groups_pick_at_the_threshold_takes_the_alias(sched):
    table = alias_for_schedule(sched)
    count = min(len(table), schedule._GROUP_SORT_MIN - 1)
    moved = table.aliases[:count] != np.arange(count)
    assert moved.any()
    got = step_groups(sched, BoundaryDraws(table), count)
    assert got == ref_groups(table, BoundaryDraws(table), count)
    assert {i for i, _ in got} == set(table.aliases[:count].tolist())


@pytest.mark.parametrize("eps", [0.5, 0.25, 0.1, 0.05, 0.01, 0.004])
def test_plateau_table_has_one_probability_per_plateau(eps):
    scheds = [schedule_for_max_size(delta, eps) for delta in (1, 2, 7, 54, 1000, 2 ** 16)]
    # tops cut short of a whole plateau, and the single step
    scheds += [make_schedule(eps, k) for k in (0, 1, 2 ** 16 + 3)]
    for sched in scheds:
        plateaus = plateau_probabilities(sched)
        assert len(plateaus) == -(-sched.k // sched.b) + 1
        assert all(type(p) is float for p in plateaus) and plateaus[0] == 1.0
        assert all(a >= b for a, b in zip(plateaus, plateaus[1:]))
        assert plateau_probabilities(sched) is plateaus
        # p(i) is entry ceil(i/b): the first and last step of every plateau
        vec = probabilities(sched)
        ends = sorted({min(i, sched.k) for level in range(len(plateaus))
                       for i in (max(level * sched.b - sched.b + 1, 0), level * sched.b)})
        assert [vec[i] for i in ends] == [plateaus[-(-i // sched.b)] for i in ends]


@pytest.mark.parametrize("eps", [0.5, 0.25, 0.1, 0.05, 0.01])
def test_python_and_numpy_probabilities_agree_within_one_ulp(eps):
    # `probability` (Python's **) and `probabilities` (numpy's power) are
    # read by different callers; they may differ in the last bit, no more
    for delta in (3, 54, 1000):
        sched = schedule_for_max_size(delta, eps)
        vec = probabilities(sched)
        for level in range(-(-sched.k // sched.b) + 1):
            i = min(level * sched.b, sched.k)
            assert abs(probability(i, sched) - vec[i]) <= math.ulp(vec[i])


def test_one_schedules_tables_hold_no_per_step_objects():
    # k >= 2^20.  A per-step list of floats would take 32 B a step; the
    # alias table is two arrays, 16 B a step, the plateau table one float a
    # plateau, and a small draw holds its own picks only
    try:
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        sched = schedule_for_max_size(10 ** 64, 0.01)
        plateau_probabilities(sched)
        grown = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.stop()
        steps = sched.k + 1
        assert steps > 2 ** 20
        # built untraced: tracing its build's loops would take seconds
        table = alias_for_schedule(sched)
        assert table.thresholds.nbytes + table.aliases.nbytes == 16 * steps
        tracemalloc.start()
        held = tracemalloc.get_traced_memory()[0]
        step_groups(sched, derive_rng(1), 5)
        draw_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
        schedule._alias_cached.cache_clear()
        schedule._plateaus_cached.cache_clear()
    assert 16 * steps + grown < 32 * steps
    assert draw_peak < 64 * 1024


def test_cached_schedules_are_the_computed_ones():
    for delta, eps in ((1, 0.5), (54, 0.1), (1000, 0.01)):
        sched = schedule_for_max_size(delta, eps)
        assert sched == make_schedule(eps, schedule_length_outer(delta, eps))
        assert schedule_for_frequency(delta, eps) is sched
