"""The cover solvers, the phase simulator and the degree-estimation pass
against the per-incidence Python implementations they replaced: equal covers,
all five work counters, batch logs, phase records and degree batches, with
the numpy/Python path crossovers (the engine's and `step_groups`') at their
defaults, forced to the numpy path (0), forced to the Python path (huge) and
set to 3, so that even a corpus-size solve mixes the two paths.  The
references live in ``_reference.py``."""

from dataclasses import astuple, replace

import numpy as np
import pytest
from _reference import (csr_rows, ref_bucketed, ref_degree_estimation, ref_hdelta,
                        ref_mpc, ref_online)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cover_sampler import cli, cover, schedule
from cover_sampler.corpus import build_cover_corpus
from cover_sampler.cover import (Cover, f_approx_bucketed, f_approx_online, hdelta_cover,
                                 verify_cover)
from cover_sampler.instance import (Hypergraph, SetCoverInstance, generate_random_hypergraph,
                                    generate_random_instance, parse_hypergraph, parse_instance,
                                    parse_text, serialize_hypergraph, serialize_instance,
                                    to_hypergraph)
from cover_sampler.mpc_sim import (simulate_degree_estimation, simulate_mpc_f_approx,
                                   sparsify_non_isolated_counts)
from cover_sampler.oracle import exact_min_cover
from cover_sampler.util import derive_rng

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
CROSSOVERS = {"default": None, "numpy": 0, "python": 10 ** 9, "mixed": 3}
# sqrt(2) - 1: (1 + eps)^(2j) = 2^j, so sets of size 2^j sit on level boundaries
BOUNDARY_EPS = 2 ** 0.5 - 1
EPS = [0.1, 0.25, 0.5, BOUNDARY_EPS]


# --- helpers ----------------------------------------------------------------------------

def crossover(mp, name):
    value = CROSSOVERS[name]
    if value is not None:
        mp.setattr(cover, "_VECTOR_MIN", value)
        mp.setattr(cover, "_VECTOR_MIN_ENTRIES", value)
        mp.setattr(cover, "_RESIDUAL_MIN", value)
        mp.setattr(schedule, "_GROUP_SORT_MIN", value)


def solver_outcomes(inst, eps, seed, online, bucketed, hdelta):
    out = {}
    # each at eps and at the command line's calibrated eps / 4
    for run_eps in (eps, eps / 4.0):
        for name, fn in (("online", online), ("bucketed", bucketed)):
            c, counters = fn(inst, run_eps, derive_rng(seed))
            out[name, run_eps] = (c, astuple(counters))
        log = []
        c, counters = hdelta(inst, run_eps, derive_rng(seed), batch_log=log)
        out["hdelta", run_eps] = (c, astuple(counters), log)
    out["hdelta-noisy"] = noisy_outcome(hdelta, inst, eps, derive_rng(seed, 1))
    return out


def noisy_outcome(hdelta, inst, eps, rng):
    log = []
    c, counters = hdelta(inst, eps, rng, oracle_delta=0.3, batch_log=log)
    # the final generator state shows every noise draw was made
    return c, astuple(counters), log, rng.bit_generator.state


def assert_all_equal(inst, eps, seed, mode):
    expected = solver_outcomes(inst, eps, seed, ref_online, ref_bucketed, ref_hdelta)
    ref_cover, ref_report = ref_mpc(inst, eps, derive_rng(seed, 2))
    with pytest.MonkeyPatch.context() as mp:
        crossover(mp, mode)
        got = solver_outcomes(inst, eps, seed, f_approx_online, f_approx_bucketed,
                              hdelta_cover)
        mpc_cover, report = simulate_mpc_f_approx(inst, eps, derive_rng(seed, 2))
    for key in expected:
        assert got[key] == expected[key], key
    assert mpc_cover == ref_cover
    assert report == ref_report


@st.composite
def instances(draw):
    num_sets = draw(st.integers(1, 30))
    num_elements = draw(st.integers(0, 120))
    max_freq = draw(st.integers(1, min(num_sets, 5)))
    rows = [draw(st.sets(st.integers(0, num_sets - 1), min_size=1, max_size=max_freq))
            for _ in range(num_elements)]
    return SetCoverInstance.from_edges(
        num_sets, num_elements, [(s, t) for t, row in enumerate(rows) for s in row])


# --- equivalence ------------------------------------------------------------------------

@pytest.mark.parametrize("mode", list(CROSSOVERS))
@SETTINGS
@given(instances(), st.sampled_from(EPS), st.integers(0, 2 ** 16))
def test_solvers_match_reference(mode, inst, eps, seed):
    assert_all_equal(inst, eps, seed, mode)


@pytest.mark.parametrize("mode", list(CROSSOVERS))
@pytest.mark.parametrize("eps", EPS)
def test_solvers_match_reference_on_larger_instances(mode, eps):
    # steps of hundreds of elements and sets, so the default crossovers mix
    # both paths within one solve
    for inst_seed, shape in ((1, (300, 3000, 3)), (2, (40, 4000, 4))):
        inst = generate_random_instance(*shape, seed=inst_seed)
        assert_all_equal(inst, eps, inst_seed, mode)


@pytest.mark.parametrize("residual_min", [0, 10 ** 9])
def test_python_commits_match_reference_on_both_residual_paths(residual_min):
    # every commit walks its set rows in Python, then lowers the residuals
    # with one gather (0) or one element row at a time (10**9)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cover, "_VECTOR_MIN_ENTRIES", 10 ** 9)
        mp.setattr(cover, "_RESIDUAL_MIN", residual_min)
        for inst_seed, shape in ((1, (300, 3000, 3)), (2, (40, 4000, 4))):
            inst = generate_random_instance(*shape, seed=inst_seed)
            assert_all_equal(inst, 0.25, inst_seed, "default")


@pytest.mark.parametrize("mode", list(CROSSOVERS))
def test_commits_leave_chosen_sets_fully_covered(monkeypatch, mode):
    # the engine keeps no chosen-set flags: it reads a set reached from an
    # uncovered element, or with a nonzero residual, as unchosen
    engine_commit = cover._SweepState.commit
    commits = []

    def checked_commit(state, sets, walked=None):
        engine_commit(state, sets, walked)
        chosen = np.array(state.chosen, dtype=np.int64)
        assert not state.residual[chosen].any()
        assert state.covered[cover._gather(state.instance.set_csr, chosen)].all()
        assert state.uncovered == np.count_nonzero(~state.covered)
        commits.append(len(sets))

    crossover(monkeypatch, mode)
    monkeypatch.setattr(cover._SweepState, "commit", checked_commit)
    runs = {
        "online": lambda inst, rng: f_approx_online(inst, 0.25, rng),
        "bucketed": lambda inst, rng: f_approx_bucketed(inst, 0.25, rng),
        "hdelta": lambda inst, rng: hdelta_cover(inst, 0.25, rng),
        "hdelta-noisy": lambda inst, rng: hdelta_cover(inst, 0.25, rng, oracle_delta=0.3),
        "mpc": lambda inst, rng: simulate_mpc_f_approx(inst, 0.25, rng),
        "degree": lambda inst, rng: simulate_degree_estimation(inst, 0.25, 2, rng),
    }
    for inst_seed, shape in ((1, (300, 3000, 3)), (2, (40, 4000, 4))):
        inst = generate_random_instance(*shape, seed=inst_seed)
        for name, run in runs.items():
            commits.clear()
            run(inst, derive_rng(inst_seed))
            assert commits, name


@SETTINGS
@given(st.data(), st.sampled_from([np.int64, np.int32]))
def test_sorted_distinct_equals_unique(data, dtype):
    # ids from a small range repeat often, ids from a large one seldom
    bound = data.draw(st.one_of(st.integers(1, 400), st.just(2 ** 31 - 1)))
    ids = st.integers(0, bound - 1)
    values = data.draw(st.one_of(
        st.just([]),
        st.lists(ids, min_size=1, max_size=1),
        st.builds(lambda v, n: [v] * n, ids, st.integers(2, 300)),
        st.lists(ids, max_size=800)))
    arr = np.array(values, dtype=dtype)
    got, want = cover._sorted_distinct(arr), np.unique(arr)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


@pytest.mark.parametrize("mode", list(CROSSOVERS))
def test_level_boundary_sizes_match_reference(mode):
    # disjoint sets of sizes 2^0..2^7 plus sets straddling them: at eps =
    # sqrt(2) - 1 every 2^j sits exactly on a level boundary
    edges, start = [], 0
    for j in range(8):
        edges += [(j, t) for t in range(start, start + 2 ** j)]
        start += 2 ** j
    edges += [(8 + j, t) for j in range(4) for t in range(j, start, 4 + j)]
    inst = SetCoverInstance.from_edges(12, start, edges)
    assert [len(row) for row in csr_rows(inst.set_csr)[:8]] == [2 ** j for j in range(8)]
    for seed in range(12):
        assert_all_equal(inst, BOUNDARY_EPS, seed, mode)


@pytest.mark.parametrize("mode", list(CROSSOVERS))
def test_noisy_oracle_matches_reference(mode):
    # 29 step groups of at least 128 sets, so the default crossovers draw
    # the noise of large groups as one vector
    inst = generate_random_instance(4000, 12000, 3, seed=4)
    expected = noisy_outcome(ref_hdelta, inst, 0.5, derive_rng(7))
    with pytest.MonkeyPatch.context() as mp:
        crossover(mp, mode)
        got = noisy_outcome(hdelta_cover, inst, 0.5, derive_rng(7))
    assert got == expected


@pytest.mark.parametrize("mode", list(CROSSOVERS))
@pytest.mark.parametrize("shape,eps,level", [((8, 30, 3), 0.5, 0), ((8, 30, 3), 0.5, 4),
                                             ((24, 200, 3), 0.25, 2), ((60, 900, 3), 0.5, 3)])
def test_degree_estimation_matches_reference(mode, shape, eps, level):
    inst = generate_random_instance(*shape, seed=shape[0])
    for seed in range(3):
        expected, _ = ref_degree_estimation(inst, eps, level, derive_rng(seed))
        with pytest.MonkeyPatch.context() as mp:
            crossover(mp, mode)
            trace = simulate_degree_estimation(inst, eps, level, derive_rng(seed))
        assert trace.batches == expected


@pytest.mark.parametrize("mode", list(CROSSOVERS))
@SETTINGS
@given(instances(), st.data())
def test_verify_cover_matches_reference(mode, inst, data):
    chosen = data.draw(st.lists(st.integers(0, inst.num_sets - 1), unique=True))
    rows = csr_rows(inst.set_csr)
    covered = {t for s in chosen for t in rows[s]}
    missing = [t for t in range(inst.num_elements) if t not in covered]
    with pytest.MonkeyPatch.context() as mp:
        crossover(mp, mode)
        got = verify_cover(inst, Cover(tuple(chosen)))
        bad = data.draw(st.sampled_from([-1, inst.num_sets, 2 ** 70]))
        at = data.draw(st.integers(0, len(chosen)))
        with pytest.raises(ValueError, match=f"set id {bad} out of range"):
            verify_cover(inst, Cover(tuple(chosen[:at] + [bad] + chosen[at:])))
    assert got == ((False, missing[0]) if missing else (True, None))


@SETTINGS
@given(st.integers(0, 12), st.lists(st.sets(st.integers(0, 11), min_size=1), max_size=10))
def test_max_vertex_degree_matches_loop(num_vertices, raw_edges):
    edges = [sorted(v for v in e if v < num_vertices) for e in raw_edges]
    edges = [e for e in edges if e]
    hg = Hypergraph.from_edges(num_vertices, edges)
    deg = [0] * num_vertices
    for e in edges:
        for v in e:
            deg[v] += 1
    assert hg.max_vertex_degree() == max(deg, default=0)


def int32_read_only(csr):
    indptr, indices = csr
    return (indptr.dtype == indices.dtype == np.int32
            and not indptr.flags.writeable and not indices.flags.writeable)


@pytest.mark.parametrize("shape", [(6, 20, 2), (300, 3000, 3)])
def test_csr_arrays_hold_the_rows(shape):
    # the arrays are the only stored layout: == and hash follow them, and the
    # tuple rows are a view of them
    built = generate_random_instance(*shape, seed=5)
    edges = [(s, t) for s, row in enumerate(csr_rows(built.set_csr)) for t in row]
    hg = generate_random_hypergraph(shape[0], shape[1] // 2, 3, seed=5, min_size=1)
    dual = to_hypergraph(built)
    assert dual.edge_csr is built.element_csr
    instances = (built,
                 SetCoverInstance.from_edges(built.num_sets, built.num_elements, edges[::-1]),
                 parse_instance(serialize_instance(built)))
    hypergraphs = (hg, Hypergraph.from_edges(hg.num_vertices, [e[::-1] for e in hg.edges]),
                   parse_hypergraph(serialize_hypergraph(hg)))
    duals = (dual, Hypergraph.from_edges(built.num_sets, csr_rows(built.element_csr)))
    for first, *others in (instances, hypergraphs, duals):
        for other in others:
            assert other == first and hash(other) == hash(first)
    for inst in instances:
        assert int32_read_only(inst.set_csr) and int32_read_only(inst.element_csr)
        # the element side is the set side transposed
        assert [(s, t) for s, row in enumerate(csr_rows(inst.set_csr)) for t in row] == edges
        assert sorted((s, t) for t, row in enumerate(csr_rows(inst.element_csr))
                      for s in row) == edges
    for h in hypergraphs + duals:
        assert int32_read_only(h.edge_csr)
        assert csr_rows(h.edge_csr) == list(h.edges)
    # by value whatever the dtype; one changed incidence on any side differs
    for obj, sides in ((built, ("set_csr", "element_csr")), (hg, ("edge_csr",))):
        for side in sides:
            indptr, indices = getattr(obj, side)
            wide = replace(obj, **{side: (indptr.astype(np.int64), indices.astype(np.int64))})
            assert wide == obj and hash(wide) == hash(obj)
            changed = indices.copy()
            changed[0] += 1
            assert replace(obj, **{side: (indptr, changed)}) != obj


# the whole view a hypergraph caches on first read; a set-cover instance's
# row caches may be present but hold no row until one is read
ROW_VIEWS = {"edges"}
ROW_CACHES = ("set_rows", "element_rows")


def holds_no_rows(obj):
    held = vars(obj)
    return not ROW_VIEWS & held.keys() and not any(held.get(c) for c in ROW_CACHES)


def test_builders_and_array_readers_cut_no_rows():
    edges = [(s, t) for t in range(40) for s in sorted({t % 7, (3 * t + 1) % 7})]
    inst = SetCoverInstance.from_edges(7, 40, edges)
    instances = [inst, parse_instance(serialize_instance(inst)),
                 generate_random_instance(9, 50, 3, seed=2)]
    hg = generate_random_hypergraph(20, 30, 3, seed=4, min_size=1)
    hypergraphs = [hg, to_hypergraph(inst), parse_hypergraph(serialize_hypergraph(hg)),
                   Hypergraph.from_edges(7, [(0, 3), (2, 5, 6), (1,)])]
    for i in instances:
        serialize_instance(i)
    for h in hypergraphs:
        serialize_hypergraph(h)
        h.max_vertex_degree()
        sparsify_non_isolated_counts(h, 0.5, 3, derive_rng(1))
    for obj in instances + hypergraphs:
        assert replace(obj) == obj and hash(replace(obj)) == hash(obj)
        assert holds_no_rows(obj), type(obj).__name__
    # the first read cuts the rows and caches them on the object
    assert inst.set_rows[3] is inst.set_rows[3] and len(vars(inst)["set_rows"]) == 1
    assert hg.edges is hg.edges and "edges" in vars(hg)


def test_row_caches_hold_the_whole_view_rows():
    # sets 2 and 5 are empty
    edges = [(0, 0), (1, 1), (1, 2), (3, 3), (4, 4), (6, 5), (0, 5), (6, 1)]
    fresh = SetCoverInstance.from_edges(7, 6, edges)
    for cache, whole in ((fresh.set_rows, csr_rows(fresh.set_csr)),
                         (fresh.element_rows, csr_rows(fresh.element_csr))):
        for i in reversed(range(len(whole))):
            assert cache[np.int64(i)] == cache[i] == whole[i]
            assert type(cache[i]) is tuple and cache[i] is cache[np.int64(i)]
        assert len(cache) == len(whole)
    assert fresh.set_rows[2] == fresh.set_rows[5] == ()


@pytest.fixture(scope="module")
def mid_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("rows") / "mid.sc"
    path.write_text(serialize_instance(generate_random_instance(2000, 20000, 3, seed=8)))
    return path


def cuts_only_some_rows(inst):
    assert 0 < len(inst.set_rows) < inst.num_sets
    assert 0 < len(inst.element_rows) < inst.num_elements


def test_bucketed_solve_cuts_only_the_rows_it_reads(mid_file):
    inst = parse_instance(mid_file.read_text())
    got, _ = f_approx_bucketed(inst, 0.25, derive_rng(1))
    cuts_only_some_rows(inst)
    assert verify_cover(inst, got) == (True, None)
    # the rows the solve cut are the arrays' rows
    for cache, rows in ((inst.set_rows, csr_rows(inst.set_csr)),
                        (inst.element_rows, csr_rows(inst.element_csr))):
        assert all(row == rows[i] for i, row in cache.items())


@pytest.mark.parametrize("alg", cli.COVER_ALGS)
def test_cli_solve_cuts_only_the_rows_it_reads(mid_file, monkeypatch, capsys, alg):
    parsed = []

    def keep(text):
        parsed.append(parse_text(text))
        return parsed[-1]
    monkeypatch.setattr(cli, "parse_text", keep)
    assert cli.main(["solve", str(mid_file), "--alg", alg, "--eps", "0.25"]) == 0
    assert "True" in capsys.readouterr().out
    cuts_only_some_rows(parsed[0])


def test_oracle_fills_the_row_caches_the_solver_reads():
    # one row reader per side: the exact oracle cuts every row into the
    # caches, and a later solve reads the same tuples and cuts none
    inst = build_cover_corpus(count=1)[0]
    assert holds_no_rows(inst)
    exact_min_cover(inst)
    held = {}
    for name, count in (("set_rows", inst.num_sets), ("element_rows", inst.num_elements)):
        cache = getattr(inst, name)
        assert sorted(cache) == list(range(count))
        held[name] = dict(cache)
    f_approx_bucketed(inst, 0.25, derive_rng(1))
    for name, rows in held.items():
        cache = getattr(inst, name)
        assert len(cache) == len(rows) and all(cache[i] is row for i, row in rows.items())
    assert not hasattr(inst, "set_neighbors") and not hasattr(inst, "element_neighbors")
