"""Fixture generation, run as its own process so that generation never shares
a heap, caches or peak RSS with the measuring process.

    python3 perfbench/fixtures.py WORKLOAD SEED SCALE OUTDIR

Writes the workload's input files into OUTDIR plus ``fixtures.json`` with the
generation and serialization times, the instance sizes and the file sizes.
Inputs come only from the package's own generators: solve-large's instance
and mpc-phases' sparsification hypergraph from SEED, verify-grid's corpora
and mpc-phases' simulator instances from fixed seeds (see below).
"""

from __future__ import annotations

import json
import os
import sys
import time

# Input sizes per workload and scale.  "full" is what the benchmark measures;
# "toy" keeps every op but shrinks inputs for the benchmark's own tests.
SIZES = {
    "full": {
        "solve-large": {"sets": 20000, "elements": 200000, "degree": 3,
                        "eps": (0.1, 0.25), "match_target_eps": 0.25,
                        "bucket_draws": 200000},
        "verify-grid": {"eps": (0.05, 0.1, 0.25, 0.5), "n": (10, 100, 1000),
                        "mc_trials": 20000, "corpus": 100, "ratio_trials": 10,
                        "ratio_eps": 0.1, "match_eps": 0.01, "ssp_runs": 25},
        "mpc-phases": {"instances": 1, "sets": 2000, "elements": 20000, "degree": 3,
                       "eps": 0.25, "degree_eps": 0.05, "sparsify_vertices": 2000,
                       "sparsify_edges": 5000, "sparsify_rank": 3, "sparsify_p": 0.1,
                       "sparsify_trials": 100, "planner_exps": (4, 6, 8, 10, 12, 14, 16)},
    },
    "toy": {
        "solve-large": {"sets": 200, "elements": 2000, "degree": 3,
                        "eps": (0.1, 0.25), "match_target_eps": 0.25,
                        "bucket_draws": 2000},
        "verify-grid": {"eps": (0.1, 0.25), "n": (10, 100),
                        "mc_trials": 1000, "corpus": 4, "ratio_trials": 2,
                        "ratio_eps": 0.1, "match_eps": 0.01, "ssp_runs": 2},
        "mpc-phases": {"instances": 2, "sets": 60, "elements": 600, "degree": 3,
                       "eps": 0.25, "degree_eps": 0.1, "sparsify_vertices": 60,
                       "sparsify_edges": 150, "sparsify_rank": 3, "sparsify_p": 0.1,
                       "sparsify_trials": 20, "planner_exps": (4, 6, 8, 10, 12)},
    },
}


def _write(outdir: str, name: str, text: str) -> int:
    with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
        fh.write(text)
    return len(text.encode())


def generate(workload: str, seed: int, scale: str, outdir: str) -> dict:
    import cover_sampler as cs
    from cover_sampler.corpus import build_cover_corpus, build_matching_corpus

    size = SIZES[scale][workload]
    meta: dict = {"files": {}, "sizes": {}}
    t0 = time.perf_counter()
    if workload == "solve-large":
        inst = cs.generate_random_instance(size["sets"], size["elements"],
                                           size["degree"], seed=seed)
        hg = cs.to_hypergraph(inst)
        t1 = time.perf_counter()
        texts = {"large.sc": cs.serialize_instance(inst),
                 "large.hg": cs.serialize_hypergraph(hg)}
        meta["sizes"] = {"num_sets": inst.num_sets, "num_elements": inst.num_elements,
                         "m": inst.m, "delta": inst.delta, "freq": inst.freq,
                         "hg_edges": len(hg.edges), "hg_rank": hg.rank,
                         "hg_max_degree": hg.max_vertex_degree()}
    elif workload == "verify-grid":
        # The acceptance corpora, as criteria 04-06 use them: their exact
        # optima (branch and bound, heavy-tailed cost) stay fixed, and the
        # run seed drives every trial stream.
        covers = build_cover_corpus(count=size["corpus"])
        matchings = build_matching_corpus()
        t1 = time.perf_counter()
        texts = {f"cover-{i:03d}.sc": cs.serialize_instance(x)
                 for i, x in enumerate(covers)}
        texts.update({f"match-{i}.hg": cs.serialize_hypergraph(x)
                      for i, x in enumerate(matchings)})
        meta["sizes"] = {"cover_instances": len(covers),
                         "cover_m_total": sum(x.m for x in covers),
                         "max_sets": max(x.num_sets for x in covers),
                         "matching_hypergraphs": len(matchings),
                         "max_edges": max(len(x.edges) for x in matchings)}
    elif workload == "mpc-phases":
        # Fixed instances (seed 1 is the ROADMAP's m = 6e4 fixture): the ball
        # measurement's cost swings by +-30% between random instances and
        # streams, so seed-drawn instances would swamp any measured change.
        # One instance keeps a pass near 10 s, so a run has several passes.
        # The run seed drives every other mpc-phases input and stream.
        seeds = list(range(1, size["instances"] + 1))
        insts = [cs.generate_random_instance(size["sets"], size["elements"],
                                             size["degree"], seed=s) for s in seeds]
        sparse = cs.generate_random_hypergraph(size["sparsify_vertices"],
                                               size["sparsify_edges"],
                                               size["sparsify_rank"], seed=seed)
        t1 = time.perf_counter()
        texts = {f"mpc-{i}.sc": cs.serialize_instance(x) for i, x in enumerate(insts)}
        texts["sparsify.hg"] = cs.serialize_hypergraph(sparse)
        meta["sizes"] = {"instance_seeds": seeds, "num_sets": size["sets"],
                         "num_elements": size["elements"],
                         "m": [x.m for x in insts], "delta": [x.delta for x in insts],
                         "freq": [x.freq for x in insts],
                         "sparsify_edges": len(sparse.edges),
                         "sparsify_vertices": sparse.num_vertices}
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    t2 = time.perf_counter()
    for name, text in texts.items():
        meta["files"][name] = _write(outdir, name, text)
    t3 = time.perf_counter()
    meta["timings"] = {"generate_s": t1 - t0, "serialize_s": t2 - t1, "write_s": t3 - t2}
    return meta


def main(argv) -> int:
    workload, seed, scale, outdir = argv[0], int(argv[1]), argv[2], argv[3]
    os.makedirs(outdir, exist_ok=True)
    meta = generate(workload, seed, scale, outdir)
    with open(os.path.join(outdir, "fixtures.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
