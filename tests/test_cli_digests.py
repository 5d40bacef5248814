"""Seeded bit-identity of the command line: a committed table of sha256
digests of ``cli.main``'s exit code, stdout and stderr, one per case, on
small generated files at fixed seeds.

A change that keeps every seeded cover, counter, batch, phase record and
check row keeps every digest.  A change that alters a law on purpose
re-records the table and says why:

    PYTHONPATH=src python tests/test_cli_digests.py

which names each case whose digest differs from the table it replaces, or
says that all of them are unchanged.
"""

import hashlib
import io
import json
import pathlib
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

from cover_sampler import cli
from cover_sampler.instance import (SetCoverInstance, generate_random_hypergraph,
                                    generate_random_instance,
                                    serialize_hypergraph, serialize_instance)

TABLE = pathlib.Path(__file__).with_name("cli_digests.json")

# 3000 elements, so the last steps take the engine's numpy path and the
# early ones its Python path; 400 edges, so matching groups its draws in a
# dict and sweeps in Python, and 2000, so it sorts them and sweeps arrays;
# two sets halving 20000 elements, so degree estimation samples below rate 1
FILES = {
    "sc": lambda: serialize_instance(generate_random_instance(300, 3000, 3, seed=41)),
    "hg": lambda: serialize_hypergraph(
        generate_random_hypergraph(200, 400, 3, seed=42, min_size=1)),
    "hg_large": lambda: serialize_hypergraph(
        generate_random_hypergraph(1500, 2000, 3, seed=43, min_size=1)),
    "halves": lambda: serialize_instance(SetCoverInstance.from_edges(
        2, 20000, [(t % 2, t) for t in range(20000)])),
}

# name -> argv, where {sc}, {hg}, {hg_large} and {halves} stand for the
# files above
CASES = {
    "solve-f-online": "solve {sc} --alg f-online --eps 0.25 --seed 3",
    "solve-f-bucketed": "solve {sc} --alg f-bucketed --eps 0.1 --seed 3",
    "solve-hdelta": "solve {sc} --alg hdelta --eps 0.1 --seed 3",
    "solve-f-online-calibrated": "solve {sc} --alg f-online --eps 0.25 --calibrated --seed 4",
    "solve-f-bucketed-calibrated": "solve {sc} --alg f-bucketed --eps 0.25 --calibrated --seed 4",
    "solve-hdelta-calibrated": "solve {sc} --alg hdelta --eps 0.25 --calibrated --seed 4",
    "solve-hdelta-oracle-delta": "solve {sc} --alg hdelta --eps 0.1 --oracle-delta 0.3 --seed 5",
    "solve-f-bucketed-copies": "solve {sc} --alg f-bucketed --eps 0.25 --copies 3 --seed 6 --format json",
    "solve-hdelta-copies": "solve {sc} --alg hdelta --eps 0.25 --copies 3 --seed 6",
    "solve-gen-sc": "solve --gen-sc 40:200:3 --alg f-online --eps 0.1 --seed 7",
    "solve-match": "solve {hg} --alg match --eps 0.1 --seed 3",
    "solve-match-target-eps": "solve {hg} --alg match --target-eps 0.3 --copies 2 --seed 8",
    "solve-match-large": "solve {hg_large} --alg match --eps 0.05 --copies 2 --seed 10",
    "solve-bad-eps": "solve {sc} --alg hdelta --eps 0.75",
    "solve-bad-oracle-delta": "solve {sc} --alg hdelta --eps 0.1 --oracle-delta nan",
    "solve-calibrated-bad-eps": "solve {sc} --alg f-online --eps 0.9 --calibrated",
    "mpc-phase-sim": "mpc {sc} --eps 0.25 --seed 3",
    "mpc-phase-sim-small-eps": "mpc {sc} --eps 0.05 --seed 9 --format json",
    "mpc-hdelta-inner": "mpc {sc} --alg hdelta-inner --eps 0.25 --j 1 --seed 3",
    "mpc-hdelta-inner-sampled": "mpc {halves} --alg hdelta-inner --eps 0.5 --j 22 --seed 3",
    "mpc-phase-sim-rejects-j": "mpc {sc} --eps 0.25 --j 3",
    "mpc-delta-sweep": "mpc --delta-sweep 2:20:6 --eps 0.25 --f 3 --n 100000",
    "mpc-delta-sweep-small-eps": "mpc --delta-sweep 3:3:1 --eps 0.01",
    "verify-lemmas": ("verify-lemmas --eps 0.25 --eps 0.5 --n 10 --n 40 --trials 1000 "
                      "--p 0.1 --ratio-trials 4 --corpus-size 2 --seed 2"),
}


def run_cases(workdir: pathlib.Path) -> dict[str, str]:
    """The digest of each case, run in-process on files written to ``workdir``."""
    paths = {}
    for kind, text in FILES.items():
        paths[kind] = workdir / f"input.{kind}"
        paths[kind].write_text(text())
    digests = {}
    for name, argv in CASES.items():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv.format(**paths).split())
        record = json.dumps([code, out.getvalue(), err.getvalue()])
        digests[name] = hashlib.sha256(record.encode()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return run_cases(tmp_path_factory.mktemp("cli-digests"))


@pytest.mark.parametrize("name", CASES)
def test_cli_output_is_bit_identical(digests, name):
    assert digests[name] == json.loads(TABLE.read_text())[name]


def test_table_names_every_case():
    assert json.loads(TABLE.read_text()).keys() == CASES.keys()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = run_cases(pathlib.Path(tmp))
    committed = json.loads(TABLE.read_text())
    changed = sorted(name for name in table.keys() | committed.keys()
                     if table.get(name) != committed.get(name))
    TABLE.write_text(json.dumps(table, indent=2) + "\n")
    sys.stdout.write(f"wrote {len(table)} digests to {TABLE}\n")
    sys.stdout.write("".join(f"changed: {name}\n" for name in changed)
                     or f"all {len(table)} unchanged\n")
