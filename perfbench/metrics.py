"""The metrics a run reports, computed from its passes.

End-to-end metrics come from untraced passes only.  Per-layer metrics come
from the spans of traced passes, from the counters and reports the package's
calls returned, and from the untraced passes of the same run (trial
latencies, Monte Carlo rate, tracing overhead).  A per-layer metric whose
layer the workload does not exercise reads 0.

Which end-to-end metric each layer should move, and where:

* ``instance.*`` parse/build times: ``load_s`` and ``pass_s`` on solve-large,
  ``load_s`` on mpc-phases; ``generate_s``/``serialize_s``: ``setup_s``.
* ``schedule.alias_build_ms``: ``setup_s``; ``schedule.bucket_draw_ms``:
  ``incidences_per_s`` on solve-large.
* ``cover.*.solve_s`` and ``matching.solve_s``: ``pass_s`` and
  ``incidences_per_s`` on solve-large; ``cover.*.trial_ms``,
  ``matching.trial_ms``: ``trial_ms_*`` and ``incidences_per_s`` on verify-grid.
* ``ssp.*.trials_per_s``, ``oracle.*``: ``pass_s`` on verify-grid.
* ``mpc_sim.*``: ``pass_s`` on mpc-phases (``degree_pool_mb``: ``peak_rss_mb``).
* ``cli.*``: ``pass_s`` on the workload that runs the subcommand.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict

from harness import LAYERS, median, self_times, tail

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "load_s": "s",
                    "incidences_per_s": "1/s", "peak_rss_mb": "MB"}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def op_medians(plain, ns_of) -> dict[str, float]:
    """Per op, the median over the untraced passes of ``ns_of(pass, op)``
    in seconds at the reference speed."""
    ops = dict.fromkeys(op for rec in plain for op in rec.op_ns)
    return {op: median(ns_of(rec, op) * rec.scale(op) / 1e9
                       for rec in plain if op in rec.op_ns)
            for op in ops}


def end_to_end(workload, setup, plain, peak_rss: float) -> dict:
    """Set-up time (median over the run's set-ups); the time of a pass and
    of its verified solves, each the sum over ops of the op's median over the
    run's untraced passes; the median of every file load in the run; and
    peak RSS.

    Every time is scaled to the reference speed by the median of the
    calibration samples taken next to its op (`harness.PassRecord.scale`):
    the shared host's own speed drifts by a third within a few minutes,
    which no run length evens out.  And medians over
    the whole run, not one pass, are the figures least moved by a slow or
    fast stretch."""
    def solve_ns(rec, op):
        if workload.solve_ops and op.startswith(workload.solve_ops):
            return rec.op_ns[op]
        return rec.solve_ns.get(op, 0)

    loads = [ns * rec.scale(op) / 1e9 for rec in plain for op, ns in rec.op_ns.items()
             if op.startswith("load.")]
    loads += [s * rec.scale(op) for rec in plain for op, s in rec.clocked.get("load", ())]
    solve_s = sum(op_medians(plain, solve_ns).values())
    values = {
        "setup_s": median(setup["total_s"]),
        "pass_s": sum(op_medians(plain, lambda rec, op: rec.op_ns[op]).values()),
        "load_s": median(loads),
        "incidences_per_s": ratio(median(rec.counts.get("incidences", 0.0)
                                         for rec in plain), solve_s),
        "peak_rss_mb": peak_rss,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def span_tables(runner) -> list[dict]:
    """Per traced pass: durations by span name, summed durations by (span
    name, op id), and self time by module."""
    spans = runner.tracer.spans
    selfs = self_times(spans)
    tables = []
    for rec in runner.passes:
        if not rec.traced:
            continue
        by_name = defaultdict(list)
        by_op = defaultdict(float)
        module_self = defaultdict(float)
        for i in range(*rec.span_range):
            name, start, end, _, op = spans[i]
            by_name[name].append((end - start) / 1e9)
            by_op[(name, op)] += (end - start) / 1e9
            module = name.split(".", 1)[0]
            if module in LAYERS:
                module_self[module] += selfs[i] / 1e9
        tables.append({"by_name": by_name, "by_op": by_op, "self": module_self})
    return tables


def layer_metrics(runner, workload, setup, reference: dict | None) -> dict:
    tables = span_tables(runner)
    plain = [r for r in runner.passes if not r.traced]
    traced = [r for r in runner.passes if r.traced]
    out: dict[str, tuple[float, str]] = {}

    def per_call(name, scale=1.0):
        """Median duration of one call."""
        return median(d for t in tables for d in t["by_name"].get(name, ())) * scale

    def per_pass(name, op_prefix=None):
        """Median over traced passes of the time spent in the span."""
        if op_prefix is None:
            return median(sum(t["by_name"].get(name, ())) for t in tables)
        return median(sum(v for (n, op), v in t["by_op"].items()
                          if n == name and op and op.startswith(op_prefix))
                      for t in tables)

    def count(name):
        return median(r.counts.get(name, 0.0) for r in runner.passes)

    parse_s = median(sum(t["by_name"].get("instance.parse_instance", ()))
                     + sum(t["by_name"].get("instance.parse_hypergraph", ()))
                     for t in tables)
    parse_mb = median(r.counts.get("instance.parse_bytes", 0.0) for r in traced) / 1e6
    out["instance.parse_sc_s"] = (per_call("instance.parse_instance"), "s")
    out["instance.parse_hg_s"] = (per_call("instance.parse_hypergraph"), "s")
    out["instance.parse_MBps"] = (ratio(parse_mb, parse_s), "MB/s")
    out["instance.from_edges_s"] = (per_call("instance.SetCoverInstance.from_edges"), "s")
    out["instance.to_hypergraph_s"] = (per_call("instance.to_hypergraph"), "s")
    out["instance.generate_s"] = (median(setup["generate_s"]), "s")
    out["instance.serialize_s"] = (median(setup["serialize_s"]), "s")
    out["schedule.alias_build_ms"] = (median(setup["alias_build_ms"]), "ms")
    out["schedule.bucket_draw_ms"] = (per_call("schedule.sample_alias", 1e3), "ms")

    for short, fname in (("f_online", "f_approx_online"),
                         ("f_bucketed", "f_approx_bucketed"),
                         ("hdelta", "hdelta_cover")):
        solve_s = per_pass(f"cover.{fname}")
        out[f"cover.{short}.solve_s"] = (solve_s, "s")
        out[f"cover.{short}.trial_ms"] = (per_call(f"cover.{fname}", 1e3), "ms")
        for field in ("edge_touches", "element_touches", "set_touches", "steps_executed"):
            out[f"cover.{short}.{field}"] = (count(f"cover.{short}.{field}"), "count")
        out[f"cover.{short}.touches_per_us"] = (
            ratio(count(f"cover.{short}.edge_touches"), solve_s * 1e6), "1/us")
        out[f"cover.{short}.size"] = (count(f"cover.{short}.size"), "count")
    out["cover.hdelta.rebucket_events"] = (count("cover.hdelta.rebucket_events"), "count")
    out["cover.verify_ms"] = (per_call("cover.verify_cover", 1e3), "ms")

    out["matching.solve_s"] = (per_pass("matching.hypergraph_matching"), "s")
    out["matching.trial_ms"] = (per_call("matching.hypergraph_matching", 1e3), "ms")
    out["matching.edge_touches"] = (count("matching.edge_touches"), "count")
    # useful share of vertex claims: incidences of kept edges over all claims
    out["matching.kept_frac"] = (ratio(count("matching.kept_incidences"),
                                       count("matching.element_touches")), "ratio")
    out["matching.size"] = (count("matching.size"), "count")
    out["matching.verify_ms"] = (per_call("matching.verify_matching", 1e3), "ms")

    for adv in ("identity", "halve", "delete-sampled", "near-miss"):
        for kind, fname, label in (("rz", "estimate_expected_rz", "expected_rz"),
                                   ("multiplicity", "estimate_conditional_multiplicity",
                                    "multiplicity")):
            busy = per_pass(f"ssp.{fname}", f"mc.{kind}.{adv}")
            out[f"ssp.{label}.{adv}.trials_per_s"] = (
                ratio(count(f"mc_trials.{kind}.{adv}"), busy), "1/s")
    out["ssp.run_ssp_ms"] = (per_call("ssp.run_ssp", 1e3), "ms")
    out["ssp.check_step_lemmas_ms"] = (per_call("ssp.check_step_lemmas", 1e3), "ms")

    out["oracle.exact_min_cover_ms"] = (per_call("oracle.exact_min_cover", 1e3), "ms")
    out["oracle.exact_max_matching_ms"] = (per_call("oracle.exact_max_matching", 1e3), "ms")

    simulate_s = per_pass("mpc_sim.simulate_mpc_f_approx")
    reference_s = per_pass("cover.f_approx_bucketed", "mpc.reference.")
    out["mpc_sim.simulate_s"] = (simulate_s, "s")
    # the covers are bit-identical (checked), so the gap is phase measurement
    out["mpc_sim.measure_overhead_s"] = (simulate_s - reference_s if simulate_s else 0.0, "s")
    for name in ("phases", "simulated_rounds", "max_ball", "relevant_elements_sum"):
        out[f"mpc_sim.{name}"] = (count(f"mpc_sim.{name}"), "count")
    out["mpc_sim.plan_ms"] = (per_pass("mpc_sim.plan_phases") * 1e3, "ms")
    sparsify_s = per_pass("mpc_sim.sparsify_non_isolated_counts")
    out["mpc_sim.sparsify_s"] = (sparsify_s, "s")
    out["mpc_sim.sparsify_trials_per_s"] = (
        ratio(count("mpc_sim.sparsify_trials"), sparsify_s), "1/s")
    out["mpc_sim.degree_estimation_s"] = (per_pass("mpc_sim.simulate_degree_estimation"), "s")
    # computed as (k+1) * T bytes of boolean pools, not measured
    out["mpc_sim.degree_pool_mb"] = (count("mpc_sim.degree_pool_bytes") / 2 ** 20, "MB")

    out["cli.solve_s"] = (per_pass("cli.main", "cli.solve"), "s")
    out["cli.mpc_s"] = (per_pass("cli.main", "cli.mpc"), "s")
    out["cli.overhead_s"] = (cli_overhead(workload, plain), "s")

    for module in LAYERS:
        out[f"{module}.self_s"] = (median(t["self"].get(module, 0.0) for t in tables), "s")

    trial_ms = [v for r in plain for v in r.samples.get("trial_ms", ())]
    pct, tail_ms, _ = tail(trial_ms)
    out["trial_ms_p50"] = (median(trial_ms), "ms")
    out["trial_ms_tail"] = (tail_ms, "ms")
    out["trial_tail_pct"] = (pct or 0.0, "pct")
    out["trial_samples"] = (len(trial_ms), "count")
    mc_ns = sum(ns for r in plain for op, ns in r.op_ns.items() if op.startswith("mc."))
    mc_trials = sum(v for r in plain for k, v in r.counts.items() if k.startswith("mc_trials."))
    out["mc_trials_per_s"] = (ratio(mc_trials, mc_ns / 1e9), "1/s")
    # the machine's speed during the run, which end-to-end times are scaled by
    out["calibration_ms"] = (median(ns / 1e6 for r in runner.passes
                                    for ns in r.calibration_ns), "ms")
    out["python.gc_collections"] = (median(r.gc_collections for r in plain), "count")
    out["rss_after_load_mb"] = (median(v for r in plain
                                       for v in r.samples.get("rss_after_load_mb", ())), "MB")
    out["trace.overhead_s"] = (median(r.wall_s for r in traced)
                               - median(r.wall_s for r in plain), "s")
    out["ops_failed_frac"] = (ratio(runner.failed, runner.attempted), "ratio")
    out["digest_mismatches"] = (digest_mismatches(runner.passes, reference), "count")
    return out


def cli_overhead(workload, plain) -> float:
    """CLI time minus load + solve + verify of the same input at the same seed."""
    cli_op, parts = workload.cli_overhead
    return median((r.op_ns[cli_op] - sum(r.op_ns.get(p, 0) for p in parts)) / 1e9
                  for r in plain if cli_op in r.op_ns)


def digest_mismatches(passes, reference: dict | None) -> int:
    """Ops whose digest differs between passes of this run, plus ops whose
    digest differs from the recorded reference for this workload and seed."""
    first = passes[0].digests
    bad = {key for rec in passes[1:] for key, d in rec.digests.items()
           if first.get(key) != d}
    if reference:
        bad |= {key for key in set(reference) | set(first)
                if reference.get(key) != first.get(key)}
    return len(bad)


def reference_digests(scale: str, workload: str, seed: int) -> dict | None:
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return None
    return table.get(scale, {}).get(workload, {}).get(str(seed))
