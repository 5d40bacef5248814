"""Every public entry point that takes eps rejects one outside (0, 1/2] with
`InvalidEpsilon`, on an empty input as on a non-empty one, and the command
line reports it as exit code 1 with no traceback.

The sampling-process entries take a pool size, not an input; a pool of size 0
is an `InvalidConfig` whatever eps, so their smallest case is a one-item pool.

The size-threshold solver's oracle over-approximation factor is checked the
same way, after eps.
"""

import math
import tracemalloc

import pytest

from cover_sampler import (Cover, CoverSamplerError, DeleteSampledNeighbors, InvalidConfig,
                           InvalidEpsilon, Matching, SetCoverInstance, SspConfig,
                           amplify_to_whp, build_alias, check_step_lemmas, cli,
                           estimate_conditional_multiplicity, estimate_expected_rz,
                           f_approx_bucketed, f_approx_online,
                           generate_random_hypergraph, generate_random_instance,
                           harmonic, hdelta_cover, hypergraph_matching, make_schedule,
                           parse_hypergraph, parse_instance, plan_phases, run_ssp,
                           schedule_length_outer, serialize_hypergraph,
                           serialize_instance, simulate_degree_estimation,
                           simulate_mpc_f_approx, verify_cover, verify_matching)
from cover_sampler.mpc_sim import sparsify_non_isolated_counts
from cover_sampler.ssp import MIN_TRIALS
from cover_sampler.util import derive_rng

BAD_EPS = (0.0, -1.0, math.nan, math.inf, 0.75)

EMPTY_SC = "p sc 3 0 0\n"
EMPTY_HG = "p hg 3 0\n"
FULL_SC = serialize_instance(generate_random_instance(12, 40, 3, seed=5))
FULL_HG = serialize_hypergraph(generate_random_hypergraph(14, 20, 3, seed=6))

# name -> call(eps, empty): every entry, on its empty or its non-empty input
ENTRIES = {
    "f_approx_online": lambda eps, empty: f_approx_online(
        parse_instance(EMPTY_SC if empty else FULL_SC), eps, derive_rng(0)),
    "f_approx_bucketed": lambda eps, empty: f_approx_bucketed(
        parse_instance(EMPTY_SC if empty else FULL_SC), eps, derive_rng(0)),
    "hdelta_cover": lambda eps, empty: hdelta_cover(
        parse_instance(EMPTY_SC if empty else FULL_SC), eps, derive_rng(0)),
    "hypergraph_matching": lambda eps, empty: hypergraph_matching(
        parse_hypergraph(EMPTY_HG if empty else FULL_HG), eps, derive_rng(0)),
    "simulate_mpc_f_approx": lambda eps, empty: simulate_mpc_f_approx(
        parse_instance(EMPTY_SC if empty else FULL_SC), eps, derive_rng(0)),
    "simulate_degree_estimation": lambda eps, empty: simulate_degree_estimation(
        parse_instance(EMPTY_SC if empty else FULL_SC), eps, 0, derive_rng(0)),
    "plan_phases": lambda eps, empty: (
        plan_phases(1, 1, eps, 2) if empty else plan_phases(300, 40, eps, 1000)),
    "run_ssp": lambda eps, empty: run_ssp(
        SspConfig(initial_size=1 if empty else 50, eps=eps)),
    "estimate_expected_rz": lambda eps, empty: estimate_expected_rz(
        SspConfig(initial_size=1 if empty else 50, eps=eps), MIN_TRIALS),
    "estimate_conditional_multiplicity": lambda eps, empty:
        estimate_conditional_multiplicity(
            SspConfig(initial_size=1 if empty else 50, eps=eps), 0, MIN_TRIALS),
}


@pytest.mark.parametrize("empty", [True, False], ids=["empty", "full"])
@pytest.mark.parametrize("eps", BAD_EPS, ids=str)
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_library_entry_rejects_eps(entry, eps, empty):
    with pytest.raises(InvalidEpsilon):
        ENTRIES[entry](eps, empty)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    paths = {}
    for name, text in (("empty.sc", EMPTY_SC), ("full.sc", FULL_SC),
                       ("empty.hg", EMPTY_HG), ("full.hg", FULL_HG)):
        (root / name).write_text(text)
        paths[name] = str(root / name)
    return paths


COMMANDS = [
    ("solve", "--alg", "f-online"),
    ("solve", "--alg", "f-bucketed"),
    # the calibrated schedule runs at eps / 4, but the caller's eps is checked
    ("solve", "--alg", "f-bucketed", "--calibrated"),
    ("solve", "--alg", "hdelta"),
    ("solve", "--alg", "match"),
    ("mpc",),
    ("mpc", "--alg", "hdelta-inner"),
]


@pytest.mark.parametrize("empty", [True, False], ids=["empty", "full"])
@pytest.mark.parametrize("eps", BAD_EPS, ids=str)
@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_cli_rejects_eps(capsys, files, command, eps, empty):
    kind = "hg" if "match" in command else "sc"
    path = files[f"{'empty' if empty else 'full'}.{kind}"]
    code = cli.main([*command, f"--eps={eps}", path])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE and captured.out == ""
    assert "InvalidEpsilon" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("empty", [True, False], ids=["empty", "full"])
@pytest.mark.parametrize("delta", [-0.1, math.nan, math.inf], ids=str)
def test_hdelta_rejects_oracle_delta_after_eps(delta, empty):
    inst = parse_instance(EMPTY_SC if empty else FULL_SC)
    with pytest.raises(ValueError, match="delta must be finite and nonnegative"):
        hdelta_cover(inst, 0.25, derive_rng(0), oracle_delta=delta)
    with pytest.raises(InvalidEpsilon):
        hdelta_cover(inst, 0.0, derive_rng(0), oracle_delta=delta)


# name -> a call each of whose arguments but one is valid
CONFIG_REFUSALS = {
    "hdelta_cover oracle_delta": lambda: hdelta_cover(
        parse_instance(FULL_SC), 0.25, derive_rng(0), oracle_delta=math.nan),
    "plan_phases delta": lambda: plan_phases(0, 2, 0.25, 1000),
    "plan_phases freq": lambda: plan_phases(16, 0, 0.25, 1000),
    "plan_phases n": lambda: plan_phases(16, 2, 0.25, 1),
    "simulate_degree_estimation level": lambda: simulate_degree_estimation(
        parse_instance(FULL_SC), 0.25, -1, derive_rng(0)),
    "generate_random_instance element_degree": lambda: generate_random_instance(
        12, 40, 0, seed=5),
    "generate_random_instance element_degree > num_sets": lambda:
        generate_random_instance(2, 40, 3, seed=5),
    "generate_random_hypergraph rank": lambda: generate_random_hypergraph(3, 20, 4, seed=6),
    "generate_random_hypergraph min_size": lambda: generate_random_hypergraph(
        14, 20, 3, seed=6, min_size=0),
    "generate_random_hypergraph distinct edges": lambda: generate_random_hypergraph(
        3, 2, 3, seed=6),
    "sparsify_non_isolated_counts p": lambda: sparsify_non_isolated_counts(
        parse_hypergraph(FULL_HG), 1.5, 1, derive_rng(0)),
    "amplify_to_whp copies": lambda: amplify_to_whp(
        f_approx_bucketed, parse_instance(FULL_SC), 0.25, 0),
    "DeleteSampledNeighbors rate": lambda: DeleteSampledNeighbors(1.5),
    "verify_cover set id": lambda: verify_cover(parse_instance(FULL_SC), Cover((12,))),
    "verify_matching edge id": lambda: verify_matching(
        parse_hypergraph(FULL_HG), Matching((20,))),
    "check_step_lemmas length": lambda: check_step_lemmas(make_schedule(0.25, 2), [3, 2]),
    "check_step_lemmas order": lambda: check_step_lemmas(make_schedule(0.25, 2), [5, 1, 3]),
    "harmonic d": lambda: harmonic(0),
    "build_alias empty": lambda: build_alias([]),
    "build_alias negative": lambda: build_alias([1.0, -1.0]),
    "build_alias all zero": lambda: build_alias([0.0, 0.0]),
    "schedule_length_outer size": lambda: schedule_length_outer(0, 0.25),
    "SetCoverInstance.from_edges pair": lambda: SetCoverInstance.from_edges(
        1, 1, [(0, 0, 0)]),
}


@pytest.mark.parametrize("entry", sorted(CONFIG_REFUSALS))
def test_config_refusals_are_typed(entry):
    # InvalidConfig is also a ValueError, the type these sites raised before
    with pytest.raises(CoverSamplerError) as info:
        CONFIG_REFUSALS[entry]()
    assert type(info.value) is InvalidConfig and isinstance(info.value, ValueError)


TINY_EPS = {
    "f_approx_bucketed": lambda eps: f_approx_bucketed(
        parse_instance(FULL_SC), eps, derive_rng(0)),
    "hdelta_cover": lambda eps: hdelta_cover(parse_instance(FULL_SC), eps, derive_rng(0)),
    "plan_phases": lambda eps: plan_phases(300, 40, eps, 1000),
    "run_ssp": lambda eps: run_ssp(SspConfig(initial_size=50, eps=eps)),
}


@pytest.mark.parametrize("eps", [1e-4, 1e-300], ids=str)
@pytest.mark.parametrize("entry", sorted(TINY_EPS) + ["cli solve"])
def test_schedule_past_max_steps_ends_typed_in_bounded_memory(tmp_path, capsys, entry, eps):
    # at eps 1e-4 a schedule has about 1e9 steps, so one float64 array over
    # them would take 7 GiB; the cap refuses it before any is sized
    path = tmp_path / "full.sc"
    path.write_text(FULL_SC)
    tracemalloc.start()
    try:
        if entry == "cli solve":
            code = cli.main(["solve", str(path), "--alg", "f-bucketed", f"--eps={eps}"])
            assert code == cli.EXIT_USAGE and "InvalidConfig" in capsys.readouterr().err
        else:
            with pytest.raises(InvalidConfig, match="MAX_STEPS"):
                TINY_EPS[entry](eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
