"""The benchmark's three workloads, one per use the paper states guarantees
for.  Each has a fixed op list that one pass runs in order, in one thread, as
a closed loop with one client (an op starts when the previous one ended).

* ``solve-large``: the file-input solve path at m = 6e5.  The live objects
  are far larger than L2 and L3, so per-incidence Python cost dominates.
* ``verify-grid``: the statistical checks (acceptance criteria 02-06 in
  shape) on instances of at most 30 sets, where the fixed cost of each call
  dominates.  Same cover and matching code as ``solve-large``.
* ``mpc-phases``: the phase-compressed distributed run on fixed instances;
  nearly all of the work is in ``mpc_sim``, so a cover speed-up should leave
  it unchanged.

Every op's output is checked; a failed check or a raised package error is a
failed op.  Each op also records a digest of its seeded output and counters.
``r`` is always the `harness.Runner`; ``r.L`` reaches the package modules,
traced or not depending on the pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time

import numpy as np

import cover_sampler.schedule as sch
from cover_sampler.errors import CoverSamplerError
from cover_sampler.instance import SetCoverInstance
from cover_sampler.util import derive_rng, mean_ci95
from harness import rss_mb

COVER_ALGS = (("f_online", "f_approx_online"),
              ("f_bucketed", "f_approx_bucketed"),
              ("hdelta", "hdelta_cover"))
COUNTER_FIELDS = ("edge_touches", "element_touches", "set_touches",
                  "steps_executed", "rebucket_events")
# Corpus instances per op; between ops the benchmark runs a full GC.
COVER_GROUP = 10
Z95 = 1.959963984540054


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def counter_tuple(counters) -> tuple:
    return tuple(getattr(counters, f) for f in COUNTER_FIELDS)


def run_cli(main, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def cold_alias_ms(sched) -> float:
    """Alias-table build for a schedule, bypassing the package's cache."""
    t0 = time.perf_counter_ns()
    sch.build_alias(sch.bucket_distribution(sched))
    return (time.perf_counter_ns() - t0) / 1e6


def solve_and_verify(L, fn, inst, eps, rng):
    cover, counters = fn(inst, eps, rng)
    ok, witness = L.cover.verify_cover(inst, cover)
    return cover, counters, ok, witness


def book_cover(r, key, short, inst, cover, counters, ok, witness) -> None:
    r.attempt(key, ok, f"uncovered element {witness}")
    for f in COUNTER_FIELDS:
        r.count(f"cover.{short}.{f}", getattr(counters, f))
    r.count(f"cover.{short}.size", cover.size)
    r.count("incidences", inst.m)


class Workload:
    name = ""
    setup_reps = 3
    # Op-name prefixes whose time is verified-solve time (incidences_per_s).
    solve_ops: tuple[str, ...] = ()
    # (CLI op, ops that do the same load + solve + verify in the library).
    cli_overhead: tuple[str, tuple[str, ...]] = ("", ())

    def __init__(self, seed: int, size: dict, fixture_dir: str, meta: dict):
        self.seed = seed
        self.size = size
        self.dir = fixture_dir
        self.meta = meta

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def load(self, r, name: str, parse):
        """Read a fixture file and parse it; counts the bytes parsed."""
        raw = read_bytes(self.path(name))
        r.count("instance.parse_bytes", len(raw))
        return parse(raw.decode())

    def warm_up(self) -> float:
        """Fill the alias cache for the schedules the pass uses; returns the
        cold alias-table build time of the workload's main schedule in ms."""
        raise NotImplementedError

    def run_pass(self, r) -> None:
        raise NotImplementedError


class SolveLarge(Workload):
    name = "solve-large"
    # Each set-up generates 6e5 incidences; once keeps the run short.
    setup_reps = 1
    solve_ops = ("solve.",)

    def __init__(self, *args):
        super().__init__(*args)
        self.cli_eps = max(self.size["eps"])
        self.cli_twin = f"solve.f_bucketed.{self.cli_eps}"
        self.cli_overhead = ("cli.solve", ("load.sc", self.cli_twin))
        text = read_bytes(self.path("large.sc")).decode()
        # Pre-split edge list for the from_edges op, made outside any timing.
        self.edges = [(int(a), int(b)) for _, a, b in
                      (line.split() for line in text.splitlines()[1:] if line)]

    def warm_up(self) -> float:
        sizes = self.meta["sizes"]
        for eps in self.size["eps"]:
            sch.alias_for_schedule(sch.schedule_for_max_size(sizes["delta"], eps))
            sch.alias_for_schedule(sch.schedule_for_frequency(sizes["freq"], eps))
        match_eps = self.size["match_target_eps"] / sizes["hg_rank"]
        sch.alias_for_schedule(sch.schedule_for_max_size(sizes["hg_max_degree"], match_eps))
        return cold_alias_ms(sch.schedule_for_max_size(sizes["delta"], self.cli_eps))

    def run_pass(self, r) -> None:
        L = r.L
        seed = self.seed
        sizes = self.meta["sizes"]
        inst = r.op("load.sc", lambda: self.load(r, "large.sc", L.instance.parse_instance))
        if inst is not None:
            r.attempt("load.sc", inst.m == sizes["m"], "size mismatch")
            r.record("load.sc", (inst.num_sets, inst.num_elements, inst.m,
                                 inst.delta, inst.freq))
            r.sample("rss_after_load_mb", rss_mb())
        hg = r.op("load.hg", lambda: self.load(r, "large.hg", L.instance.parse_hypergraph))
        if hg is not None:
            r.attempt("load.hg", len(hg.edges) == sizes["hg_edges"], "edge count mismatch")
            r.record("load.hg", (hg.num_vertices, len(hg.edges), hg.rank))
        if inst is None or hg is None:
            return

        built = r.op("build.from_edges", lambda: r.call(
            "instance.SetCoverInstance.from_edges", SetCoverInstance.from_edges,
            sizes["num_sets"], sizes["num_elements"], self.edges))
        if built is not None:
            r.attempt("build.from_edges", built == inst, "differs from the parsed instance")
        dual = r.op("build.to_hypergraph", lambda: L.instance.to_hypergraph(inst))
        if dual is not None:
            r.attempt("build.to_hypergraph", dual == hg, "differs from the parsed dual")

        def bucket_draw():
            sched = L.schedule.schedule_for_max_size(inst.delta, self.cli_eps)
            table = L.schedule.alias_for_schedule(sched)
            return sched.k, L.schedule.sample_alias(table, derive_rng(seed, 1),
                                                    size=self.size["bucket_draws"])
        drawn = r.op("schedule.bucket_draw", bucket_draw)
        if drawn is not None:
            k, draws = drawn
            r.attempt("schedule.bucket_draw", draws.size == self.size["bucket_draws"]
                      and 0 <= int(draws.min()) and int(draws.max()) <= k,
                      "draw outside the schedule")
            r.record("schedule.bucket_draw", np.bincount(draws, minlength=k + 1).tolist())

        cli_reference = None
        for eps in self.size["eps"]:
            for short, fname in COVER_ALGS:
                key = f"solve.{short}.{eps}"
                out = r.op(key, lambda: solve_and_verify(
                    L, getattr(L.cover, fname), inst, eps, derive_rng(seed, 0)))
                if out is None:
                    continue
                cover, counters, ok, witness = out
                book_cover(r, key, short, inst, cover, counters, ok, witness)
                r.record(key, (cover.chosen_sets, counter_tuple(counters)))
                if key == self.cli_twin:
                    cli_reference = (cover.size, counter_tuple(counters))

        match_eps = self.size["match_target_eps"] / max(hg.rank, 1)

        def match():
            m, counters = L.matching.hypergraph_matching(hg, match_eps, derive_rng(seed, 0))
            return m, counters, L.matching.verify_matching(hg, m)
        out = r.op("solve.match", match)
        if out is not None:
            m, counters, (ok, witness) = out
            r.attempt("solve.match", ok, f"vertex {witness} used twice")
            r.count("matching.kept_incidences", sum(len(hg.edges[e]) for e in m.edge_ids))
            r.count("matching.element_touches", counters.element_touches)
            r.count("matching.edge_touches", counters.edge_touches)
            r.count("matching.size", m.size)
            r.count("incidences", sum(len(e) for e in hg.edges))
            r.record("solve.match", (m.edge_ids, counter_tuple(counters)))

        argv = ["solve", self.path("large.sc"), "--alg", "f-bucketed",
                "--eps", str(self.cli_eps), "--seed", str(seed), "--format", "json"]
        out = r.op("cli.solve", lambda: run_cli(L.cli.main, argv))
        if out is not None:
            code, text = out
            row = json.loads(text)[0] if code == 0 else {}
            got = (row.get("size"), tuple(row.get(f) for f in COUNTER_FIELDS))
            r.attempt("cli.solve", code == 0 and row.get("valid") is True
                      and got == cli_reference,
                      f"exit {code}, result {got} differs from the library solve")
            r.record("cli.solve", row)


class VerifyGrid(Workload):
    name = "verify-grid"

    def __init__(self, *args):
        super().__init__(*args)
        files = sorted(self.meta["files"])
        self.cover_files = [f for f in files if f.startswith("cover-")]
        self.match_files = [f for f in files if f.startswith("match-")]

    def warm_up(self) -> float:
        """One unmeasured solve of every corpus instance fills the alias cache."""
        import cover_sampler as cs
        for name in self.cover_files:
            inst = cs.parse_instance(read_bytes(self.path(name)).decode())
            for _, fname in COVER_ALGS:
                getattr(cs, fname)(inst, self.size["ratio_eps"], derive_rng(0))
        for name in self.match_files:
            hg = cs.parse_hypergraph(read_bytes(self.path(name)).decode())
            cs.hypergraph_matching(hg, self.size["match_eps"], derive_rng(0))
        return cold_alias_ms(sch.schedule_for_max_size(25, self.size["ratio_eps"]))

    @staticmethod
    def trial_solver(r, key, short, fn, verify, incidences, log):
        """Solver handed to measure_ratio: each trial is a verified solve,
        timed from the outside."""
        def solve(target, eps, rng):
            t0 = time.perf_counter_ns()
            sol, counters = fn(target, eps, rng)
            ok, witness = verify(target, sol)
            dt = time.perf_counter_ns() - t0
            r.sample("trial_ms", dt / 1e6)
            r.solved(dt)
            r.count("incidences", incidences)
            r.attempt(key, ok, f"invalid solution, witness {witness}")
            for f in COUNTER_FIELDS:
                r.count(f"{short}.{f}", getattr(counters, f))
            r.count(f"{short}.size", sol.size)
            if short == "matching":
                r.count("matching.kept_incidences",
                        sum(len(target.edges[e]) for e in sol.edge_ids))
            log.append((sol.size, counter_tuple(counters)))
            return sol, counters
        return solve

    def run_pass(self, r) -> None:
        L = r.L
        seed = self.seed
        size = self.size
        eps = size["ratio_eps"]
        for first in range(0, len(self.cover_files), COVER_GROUP):
            group = list(enumerate(self.cover_files[first:first + COVER_GROUP], first))
            key = f"cover.{first}"

            def cover_op():
                results = []
                for idx, name in group:
                    log: list = []
                    inst = r.clock("load", self.load, r, name, L.instance.parse_instance)
                    opt = L.oracle.exact_min_cover(inst)
                    reports = []
                    for a, (short, fname) in enumerate(COVER_ALGS):
                        bound = (L.oracle.hdelta_bound(inst, eps) if short == "hdelta"
                                 else L.oracle.f_approx_bound(inst, eps))
                        solver = self.trial_solver(r, f"cover.{idx}", f"cover.{short}",
                                                   getattr(L.cover, fname),
                                                   L.cover.verify_cover, inst.m, log)
                        reports.append(L.oracle.measure_ratio(
                            solver, inst, eps, size["ratio_trials"],
                            derive_rng(seed, 200, idx, a), bound, opt=opt, workers=1))
                    results.append((idx, opt, reports, log))
                return results
            out = r.op(key, cover_op)
            if out is None:
                continue
            if first == 0:
                r.sample("rss_after_load_mb", rss_mb())
            for idx, opt, reports, log in out:
                for (short, _), rep in zip(COVER_ALGS, reports):
                    r.attempt(f"cover.{idx}", rep.passed,
                              f"{short} ratio {rep.mean_ratio:.3f} - ci above "
                              f"bound {rep.bound:.3f}")
                r.record(f"cover.{idx}", (opt, [(rep.mean_ratio, rep.ci95)
                                                for rep in reports], log))

        m_eps = size["match_eps"]
        for idx, name in enumerate(self.match_files):
            key = f"match.{idx}"
            log: list = []

            def match_op():
                hg = r.clock("load", self.load, r, name, L.instance.parse_hypergraph)
                opt = L.oracle.exact_max_matching(hg)
                solver = self.trial_solver(r, key, "matching",
                                           L.matching.hypergraph_matching,
                                           L.matching.verify_matching,
                                           sum(len(e) for e in hg.edges), log)
                return opt, L.oracle.measure_ratio(
                    solver, hg, m_eps, size["ratio_trials"], derive_rng(seed, 300, idx),
                    L.oracle.matching_bound(hg, m_eps), maximize=True, opt=opt, workers=1)
            out = r.op(key, match_op)
            if out is None:
                continue
            opt, rep = out
            r.attempt(key, rep.passed, f"matching ratio {rep.mean_ratio:.3f} + ci "
                                       f"below bound {rep.bound:.3f}")
            r.record(key, (opt, rep.mean_ratio, rep.ci95, log))

        adversaries = L.ssp.builtin_adversaries()
        trials = size["mc_trials"]
        for kind, eps_grid in (("rz", size["eps"]),
                               ("multiplicity", [e for e in size["eps"] if e <= 0.25])):
            for a, (adv_name, adv) in enumerate(adversaries.items()):
                key = f"mc.{kind}.{adv_name}"

                def mc_op():
                    cells = []
                    for e in eps_grid:
                        for n in size["n"]:
                            cfg = L.ssp.SspConfig(initial_size=n, eps=e, adversary=adv,
                                                  seed=seed * 1000 + 100 * a + len(cells))
                            if kind == "rz":
                                value, ci = L.ssp.estimate_expected_rz(cfg, trials)
                                bound = 1.0 + 4.0 * e
                            else:
                                value, ci = L.ssp.estimate_conditional_multiplicity(
                                    cfg, 0, trials)
                                bound = 6.0 * e
                            cells.append((f"{key}.{e}.{n}", value, ci, bound))
                    return cells
                out = r.op(key, mc_op)
                if out is None:
                    continue
                r.count(f"mc_trials.{kind}.{adv_name}", trials * len(out))
                for cell_key, value, ci, bound in out:
                    r.attempt(cell_key, value - ci <= bound,
                              f"{value:.4f} - {ci:.4f} above bound {bound}")
                    r.record(cell_key, (value, ci))

        def step_lemmas():
            results = []
            for e in size["eps"]:
                for n in size["n"]:
                    k = L.ssp.minimum_steps(n, e)
                    sched = L.schedule.make_schedule(e, k)
                    shrinking = [max(1, n - (n * i) // (2 * k + 2)) for i in range(k + 1)]
                    results.append((L.ssp.check_step_lemmas(sched, [n] * (k + 1)).ok,
                                    L.ssp.check_step_lemmas(sched, shrinking).ok))
            return results
        out = r.op("ssp.step_lemmas", step_lemmas)
        if out is not None:
            r.attempt("ssp.step_lemmas", all(a and b for a, b in out),
                      "a step inequality failed")
            r.record("ssp.step_lemmas", out)

        def ssp_runs():
            traces = []
            for a, adv in enumerate(adversaries.values()):
                for i in range(size["ssp_runs"]):
                    cfg = L.ssp.SspConfig(initial_size=100, eps=0.25, adversary=adv,
                                          seed=seed * 1000 + 100 * a + i)
                    traces.append(L.ssp.run_ssp(cfg))
            return traces
        out = r.op("ssp.run_ssp", ssp_runs)
        if out is not None:
            r.attempt("ssp.run_ssp", all(t.z == -1 or 1 <= t.r_z <= 100 for t in out),
                      "stop step without a sample")
            r.record("ssp.run_ssp", [(t.z, t.r_z) for t in out])


class MpcPhases(Workload):
    name = "mpc-phases"
    setup_reps = 2
    solve_ops = ("mpc.simulate.", "mpc.reference.")
    # The CLI runs the degree-estimation pass (--alg hdelta-inner) on
    # instance 0; a second full phase simulation would double the weight of
    # one instance's seed-dependent ball measurement in pass_s.
    cli_overhead = ("cli.mpc", ("load.0", "mpc.degree_estimation"))

    def __init__(self, *args):
        super().__init__(*args)
        self.instances = [f for f in sorted(self.meta["files"]) if f.startswith("mpc-")]

    def warm_up(self) -> float:
        eps = self.size["eps"]
        deltas = self.meta["sizes"]["delta"]
        for delta in deltas:
            sch.alias_for_schedule(sch.schedule_for_max_size(delta, eps))
        return cold_alias_ms(sch.schedule_for_max_size(max(deltas), eps))

    def run_pass(self, r) -> None:
        L = r.L
        seed = self.seed
        size = self.size
        eps = size["eps"]
        first = cli_reference = level = None
        streams = self.meta["sizes"]["instance_seeds"]
        for idx, name in enumerate(self.instances):
            inst = r.op(f"load.{idx}", lambda: self.load(r, name, L.instance.parse_instance))
            if inst is None:
                continue
            r.record(f"load.{idx}", (inst.num_sets, inst.num_elements, inst.m, inst.delta))
            if idx == 0:
                first = inst
                r.sample("rss_after_load_mb", rss_mb())

            def simulate():
                cover, report = L.mpc_sim.simulate_mpc_f_approx(
                    inst, eps, derive_rng(streams[idx], 0))
                return cover, report, L.cover.verify_cover(inst, cover)
            key = f"mpc.simulate.{idx}"
            out = r.op(key, simulate)
            if out is None:
                continue
            cover, report, (ok, witness) = out
            r.attempt(key, ok, f"uncovered element {witness}")
            r.count("incidences", inst.m)
            r.count("mpc_sim.phases", len(report.phases))
            r.count("mpc_sim.simulated_rounds", report.simulated_rounds)
            r.count("mpc_sim.max_ball", max((p.max_ball for p in report.phases), default=0))
            r.count("mpc_sim.relevant_elements_sum",
                    sum(p.relevant_elements for p in report.phases))
            phases = [(p.length, p.relevant_elements, p.max_ball, p.residual_degree_after)
                      for p in report.phases]
            r.record(key, (cover.chosen_sets, counter_tuple(report.counters), phases))

            ref_key = f"mpc.reference.{idx}"
            out = r.op(ref_key, lambda: solve_and_verify(
                L, L.cover.f_approx_bucketed, inst, eps, derive_rng(streams[idx], 0)))
            if out is None:
                continue
            ref, counters, ok, witness = out
            book_cover(r, ref_key, "f_bucketed", inst, ref, counters, ok, witness)
            r.attempt(ref_key, ref == cover
                      and counter_tuple(counters) == counter_tuple(report.counters),
                      "phase simulation differs from f_approx_bucketed at the same seed")
            r.record(ref_key, (ref.chosen_sets, counter_tuple(counters)))

        exps = size["planner_exps"]
        plans = r.op("mpc.plan_sweep", lambda: [
            L.mpc_sim.plan_phases(2 ** e, 2, eps, 2 ** 20) for e in exps])
        if plans is not None:
            # acceptance criterion 10: a square-root fit in ln(delta) beats a linear one
            rounds = np.array([p.predicted_mpc_rounds for p in plans], dtype=float)
            x = np.array([e * math.log(2.0) for e in exps])

            def residual(features):
                design = np.column_stack([features, np.ones_like(features)])
                coef, *_ = np.linalg.lstsq(design, rounds, rcond=None)
                return float(np.linalg.norm(rounds - design @ coef))
            r.attempt("mpc.plan_sweep", residual(np.sqrt(x)) < residual(x),
                      "round count does not follow the square-root trend")
            r.record("mpc.plan_sweep", rounds.tolist())

        if first is not None:
            d_eps = size["degree_eps"]
            level = math.floor(math.log(first.delta) / math.log1p(d_eps)) // 2
            trace = r.op("mpc.degree_estimation", lambda: (
                L.mpc_sim.simulate_degree_estimation(first, d_eps, level,
                                                     derive_rng(seed, 0))))
            if trace is not None:
                ids = [s for b in trace.batches for s in b.set_ids]
                ok = len(ids) == len(set(ids)) and all(
                    est >= trace.threshold * (1.0 - 1e-9)
                    for b in trace.batches for est in b.estimates)
                r.attempt("mpc.degree_estimation", ok,
                          "a set committed twice or below the level threshold")
                r.count("mpc_sim.degree_pool_bytes", (trace.k + 1) * first.num_elements)
                cli_reference = [(b.step, b.set_ids, b.true_sizes) for b in trace.batches]
                r.record("mpc.degree_estimation", cli_reference)

        hg = r.op("load.sparsify", lambda: self.load(r, "sparsify.hg",
                                                      L.instance.parse_hypergraph))
        if hg is not None:
            p, trials = size["sparsify_p"], size["sparsify_trials"]
            counts = r.op("mpc.sparsify", lambda: L.mpc_sim.sparsify_non_isolated_counts(
                hg, p, trials, derive_rng(seed, 2)))
            r.count("mpc_sim.sparsify_trials", trials)
            if counts is not None:
                # acceptance criterion 7: mean within its bound plus 3 sigma
                mean, ci = mean_ci95(counts)
                bound = p * hg.avg_rank * len(hg.edges)
                r.attempt("mpc.sparsify", mean <= bound + 3 * ci / Z95,
                          f"mean {mean:.2f} above bound {bound:.2f}")
                r.record("mpc.sparsify", counts.tolist())

        if level is not None:
            argv = ["mpc", self.path(self.instances[0]), "--alg", "hdelta-inner",
                    "--j", str(level), "--eps", str(size["degree_eps"]),
                    "--seed", str(seed), "--format", "json"]
            out = r.op("cli.mpc", lambda: run_cli(L.cli.main, argv))
            if out is not None:
                code, text = out
                rows = json.loads(text) if code == 0 else []
                got = [(row["step"],
                        tuple(int(s) for s in row["set_ids"].split(";") if s),
                        tuple(int(t) for t in row["true_sizes"].split(";") if t))
                       for row in rows]
                r.attempt("cli.mpc", code == 0 and got == cli_reference,
                          f"exit {code}, batches differ from the library pass")
                r.record("cli.mpc", rows)


WORKLOADS = {w.name: w for w in (SolveLarge, VerifyGrid, MpcPhases)}
ERROR_TYPE = CoverSamplerError
