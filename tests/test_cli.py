"""Command-line interface: dispatch, exit codes, output formats, and
reproducibility."""

import csv
import io
import json
from dataclasses import asdict

import pytest

from cover_sampler import cli, oracle
from cover_sampler.cli import main
from cover_sampler.cover import NoisyExactSize, hdelta_cover
from cover_sampler.instance import (generate_random_hypergraph,
                                    generate_random_instance, parse_instance,
                                    serialize_hypergraph, serialize_instance)
from cover_sampler.util import derive_rng


@pytest.fixture()
def sc_file(tmp_path):
    inst = generate_random_instance(12, 40, 3, seed=5)
    path = tmp_path / "fixture.sc"
    path.write_text(serialize_instance(inst))
    return str(path)


@pytest.fixture()
def hg_file(tmp_path):
    hg = generate_random_hypergraph(14, 20, 3, seed=6)
    path = tmp_path / "fixture.hg"
    path.write_text(serialize_hypergraph(hg))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_solve_bucketed(capsys, sc_file):
    code, out, _ = run_cli(capsys, "solve", "--alg", "f-bucketed",
                           "--eps", "0.1", "--seed", "7", sc_file)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    assert rows[0]["valid"] == "True"
    assert int(rows[0]["size"]) >= 1


@pytest.mark.parametrize("alg", ["f-online", "hdelta"])
def test_solve_other_algorithms(capsys, sc_file, alg):
    code, out, _ = run_cli(capsys, "solve", "--alg", alg,
                           "--eps", "0.25", "--seed", "1", sc_file)
    assert code == 0
    assert parse_csv(out)[0]["valid"] == "True"


def test_solve_invalid_epsilon(capsys, sc_file):
    code, _, err = run_cli(capsys, "solve", "--alg", "hdelta",
                           "--eps", "0.9", sc_file)
    assert code == 1
    assert "InvalidEpsilon" in err


def test_solve_missing_file(capsys):
    code, _, err = run_cli(capsys, "solve", "--alg", "f-bucketed",
                           "--eps", "0.1", "/nonexistent.sc")
    assert code == 1


def test_solve_json_mirrors_csv(capsys, sc_file):
    code, out_csv, _ = run_cli(capsys, "solve", "--alg", "f-bucketed",
                               "--eps", "0.1", "--seed", "3", sc_file)
    code2, out_json, _ = run_cli(capsys, "solve", "--alg", "f-bucketed",
                                 "--eps", "0.1", "--seed", "3",
                                 "--format", "json", sc_file)
    assert code == code2 == 0
    csv_row = parse_csv(out_csv)[0]
    json_row = json.loads(out_json)[0]
    assert set(csv_row) == set(json_row)
    assert str(json_row["size"]) == csv_row["size"]


def test_solve_reproducible(capsys, sc_file):
    _, out1, _ = run_cli(capsys, "solve", "--alg", "f-bucketed",
                         "--eps", "0.1", "--seed", "11", sc_file)
    _, out2, _ = run_cli(capsys, "solve", "--alg", "f-bucketed",
                         "--eps", "0.1", "--seed", "11", sc_file)
    assert out1 == out2


def test_solve_match_target_eps(capsys, hg_file):
    code, out, _ = run_cli(capsys, "solve", "--alg", "match",
                           "--target-eps", "0.3", "--seed", "2", hg_file)
    assert code == 0
    row = parse_csv(out)[0]
    assert row["valid"] == "True"
    assert float(row["internal_eps"]) == pytest.approx(0.3 / 3)


def test_solve_oracle_delta_seeded_output(capsys, sc_file):
    with open(sc_file) as fh:
        inst = parse_instance(fh.read())
    rng = derive_rng(4, 0)
    cover, counters = hdelta_cover(inst, 0.25, rng, size_oracle=NoisyExactSize(0.3, rng))
    code, out, _ = run_cli(capsys, "solve", "--alg", "hdelta", "--eps", "0.25",
                           "--seed", "4", "--oracle-delta", "0.3", sc_file)
    assert code == 0
    row = parse_csv(out)[0]
    assert int(row["size"]) == cover.size
    assert {f: int(row[f]) for f in asdict(counters)} == asdict(counters)
    # zero runs the exact oracle, as without the flag
    outs = [run_cli(capsys, "solve", "--alg", "hdelta", "--eps", "0.25", "--seed", "4",
                    *extra, sc_file)[1] for extra in ([], ["--oracle-delta", "0"])]
    assert outs[0] == outs[1]


@pytest.mark.parametrize("value", ["-0.5", "nan", "inf"])
def test_solve_rejects_bad_oracle_delta(capsys, sc_file, value):
    code, out, err = run_cli(capsys, "solve", "--alg", "hdelta", "--eps", "0.25",
                             "--oracle-delta", value, sc_file)
    assert code == 1 and out == ""
    assert "finite and nonnegative" in err


@pytest.mark.parametrize("alg", ["f-online", "f-bucketed", "match"])
def test_solve_oracle_delta_needs_hdelta(capsys, sc_file, hg_file, alg):
    code, out, err = run_cli(capsys, "solve", "--alg", alg, "--eps", "0.25",
                             "--oracle-delta", "0.1",
                             hg_file if alg == "match" else sc_file)
    assert code == 1 and out == ""
    assert "--oracle-delta applies only to --alg hdelta" in err


def test_solve_match_rejects_cover_input(capsys, sc_file):
    code, _, err = run_cli(capsys, "solve", "--alg", "match",
                           "--eps", "0.1", sc_file)
    assert code == 1


@pytest.mark.parametrize("text", ["p xx 1 2\n", "x y\n"], ids=["kind-xx", "no-p"])
def test_solve_names_both_headers_when_none_is_found(capsys, tmp_path, text):
    path = tmp_path / "input.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "solve", "--alg", "f-bucketed",
                             "--eps", "0.25", str(path))
    assert code == 1 and out == ""
    assert "ParseError" in err and "expected 'p sc S T M' or 'p hg V E'" in err


@pytest.mark.parametrize("text", ["", "c only a comment\n\nc and another\n", "\n  \n"],
                         ids=["empty-file", "comments", "blank-lines"])
@pytest.mark.parametrize("command", [["solve", "--alg", "f-bucketed"], ["mpc"]],
                         ids=["solve", "mpc"])
def test_input_without_header_is_empty_input(capsys, tmp_path, text, command):
    # solve reads either format and mpc only set cover; both say the same
    path = tmp_path / "input.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, *command, "--eps", "0.25", str(path))
    assert code == 1 and out == ""
    assert err == "error: ParseError: empty input\n"


@pytest.mark.parametrize("argv, kind, message", [
    (["mpc"], "hg", "expected 'p sc S T M'"),
    (["solve", "--alg", "match"], "sc", "--alg match needs a hypergraph input"),
    (["solve", "--alg", "f-bucketed"], "hg",
     "--alg f-bucketed needs a set-cover input"),
], ids=["mpc-hg", "match-sc", "bucketed-hg"])
def test_input_kind_must_fit_the_command(capsys, sc_file, hg_file, argv, kind,
                                         message):
    code, out, err = run_cli(capsys, *argv, "--eps", "0.25",
                             hg_file if kind == "hg" else sc_file)
    assert code == 1 and out == ""
    assert message in err


@pytest.mark.parametrize("header, error", [("p sc 1 10000000 1", "InfeasibleInstance"),
                                           ("p sc 1000000000 1 1", "ParseError")],
                         ids=["elements", "sets"])
def test_cli_rejects_oversized_set_cover_header(capsys, tmp_path, header, error):
    path = tmp_path / "input.sc"
    path.write_text(f"{header}\ne 0 0\n")
    code, out, err = run_cli(capsys, "solve", "--alg", "f-bucketed",
                             "--eps", "0.25", str(path))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {error}: ") and "Traceback" not in err


def test_solve_reads_hypergraph_after_comments_and_blank_lines(capsys, tmp_path):
    path = tmp_path / "input.hg"
    path.write_bytes(b"c leading comment\r\n\n   \nc p sc 1 1 1\np hg 4 2\n0 1\n2 3\n")
    code, out, _ = run_cli(capsys, "solve", "--alg", "match", "--eps", "0.25",
                           str(path))
    assert code == 0
    row = parse_csv(out)[0]
    assert row["valid"] == "True" and row["size"] == "2"


def test_solve_generated_input(capsys):
    code, out, _ = run_cli(capsys, "solve", "--alg", "f-bucketed",
                           "--eps", "0.25", "--gen-sc", "10:30:2", "--seed", "4")
    assert code == 0
    assert parse_csv(out)[0]["valid"] == "True"


def test_solve_requires_one_input(capsys, sc_file):
    code, _, err = run_cli(capsys, "solve", "--alg", "f-bucketed",
                           "--eps", "0.25", "--gen-sc", "10:30:2", sc_file)
    assert code == 1
    assert "exactly one input source" in err


def test_solve_copies(capsys, sc_file):
    code, out, _ = run_cli(capsys, "solve", "--alg", "f-bucketed",
                           "--eps", "0.25", "--copies", "5", "--seed", "9",
                           sc_file)
    assert code == 0
    assert int(parse_csv(out)[0]["copy_index"]) in range(5)


def test_generate_roundtrip(capsys, tmp_path):
    path = tmp_path / "gen.sc"
    code, _, _ = run_cli(capsys, "generate", "sc", "--sets", "6",
                         "--elements", "20", "--degree", "2", "--seed", "3",
                         "-o", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "solve", "--alg", "f-bucketed",
                           "--eps", "0.25", str(path))
    assert code == 0


def test_generate_hypergraph_stdout(capsys):
    code, out, _ = run_cli(capsys, "generate", "hg", "--vertices", "8",
                           "--edges", "10", "--rank", "2", "--seed", "1")
    assert code == 0
    assert out.startswith("p hg 8 10")


def test_verify_lemmas_single_cell(capsys):
    code, out, _ = run_cli(capsys, "verify-lemmas", "--check", "sample-mean",
                           "--eps", "0.1", "--n", "100",
                           "--adversary", "identity", "--trials", "20000")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    assert rows[0]["passed"] == "True"
    assert float(rows[0]["value"]) <= 1.4


def test_verify_lemmas_insufficient_trials(capsys):
    code, _, err = run_cli(capsys, "verify-lemmas", "--check", "sample-mean",
                           "--eps", "0.25", "--n", "10", "--trials", "10")
    assert code == 1
    assert "InsufficientTrials" in err


def test_verify_lemmas_step_bounds(capsys):
    code, out, _ = run_cli(capsys, "verify-lemmas", "--check", "step-bounds",
                           "--eps", "0.25", "--n", "50")
    assert code == 0
    assert all(r["passed"] == "True" for r in parse_csv(out))


def test_verify_lemmas_sparsification(capsys):
    code, out, _ = run_cli(capsys, "verify-lemmas", "--check", "sparsification",
                           "--p", "0.1", "--trials", "10000")
    assert code == 0


def test_verify_lemmas_ratio_checks(capsys):
    code, out, _ = run_cli(capsys, "verify-lemmas", "--check", "cover-ratio",
                           "--check", "matching-ratio", "--corpus-size", "3",
                           "--ratio-trials", "40")
    assert code == 0
    rows = parse_csv(out)
    assert {"cover-ratio", "matching-ratio"} <= {r["check"] for r in rows}


def test_verify_lemmas_cover_ratio_solves_each_optimum_once(capsys, monkeypatch):
    calls = []
    exact = oracle.exact_min_cover

    def counting(instance, *args, **kwargs):
        calls.append(instance)
        return exact(instance, *args, **kwargs)

    monkeypatch.setattr(oracle, "exact_min_cover", counting)
    monkeypatch.setattr(cli, "exact_min_cover", counting, raising=False)
    code, out, _ = run_cli(capsys, "verify-lemmas", "--check", "cover-ratio",
                           "--corpus-size", "3", "--ratio-trials", "5")
    assert code == 0
    assert len(parse_csv(out)) == 6
    assert len(calls) == 3


def test_mpc_planner_sweep(capsys):
    code, out, _ = run_cli(capsys, "mpc", "--eps", "0.25", "--f", "2",
                           "--delta-sweep", "4:8:2")
    assert code == 0
    rows = parse_csv(out)
    assert {r["delta_exp"] for r in rows} == {"4", "6", "8"}
    last = [r for r in rows if r["delta_exp"] == "8"][-1]
    assert int(last["cumulative_rounds"]) == int(last["predicted_mpc_rounds"])


def test_mpc_planner_sweep_at_small_eps(capsys):
    code, out, _ = run_cli(capsys, "mpc", "--eps", "0.01", "--delta-sweep", "4:4:1")
    assert code == 0
    rows = parse_csv(out)
    assert {r["case"] for r in rows} == {"1"}
    assert len(rows) == int(rows[0]["k"]) + 1


def test_mpc_planner_sweep_rejects_delta_beyond_float_range(capsys):
    code, out, err = run_cli(capsys, "mpc", "--eps", "0.25",
                             "--delta-sweep", "1100:1100:1")
    assert code == 1 and out == ""
    assert "InvalidConfig" in err and "beyond float range" in err


def test_mpc_phase_sim(capsys, sc_file):
    code, out, _ = run_cli(capsys, "mpc", "--eps", "0.25", "--seed", "2", sc_file)
    assert code == 0
    rows = parse_csv(out)
    assert list(rows[0]) == ["phase_index", "case", "r_j", "sampled_prob_start",
                             "relevant_elements", "max_ball",
                             "residual_degree_after", "cumulative_rounds"]


def test_mpc_empty_instance_single_row(capsys, tmp_path):
    path = tmp_path / "empty.sc"
    path.write_text("p sc 3 0 0\n")
    code, out, _ = run_cli(capsys, "mpc", "--eps", "0.25", str(path))
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    assert rows[0]["cumulative_rounds"] == "0"


def test_mpc_missing_eps_reported_before_reading_input(capsys):
    code, _, err = run_cli(capsys, "mpc", "/nonexistent.sc")
    assert code == 1
    assert "--eps required" in err


def test_mpc_degree_estimation_dispatch(capsys, sc_file):
    code, out, _ = run_cli(capsys, "mpc", "--alg", "hdelta-inner", "--j", "1",
                           "--eps", "0.25", "--seed", "3", sc_file)
    assert code == 0
    rows = parse_csv(out)
    assert rows, "expected at least one committed batch"
    assert "true_sizes" in rows[0]
