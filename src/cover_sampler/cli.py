"""Command-line front end.

Subcommands: ``solve`` (run a solver on an instance), ``verify-lemmas`` (run
the statistical and deterministic check suites), ``mpc`` (phase planning,
phase-by-phase simulation, sample-based size estimation), ``generate``
(write fixture files).  Output on stdout is CSV or JSON (same fields either
way); diagnostics go to stderr.

Exit codes: 0 success, 1 input/usage/parse errors, 2 solution verification
failure, 3 statistical check failure.

Seeding: every randomized run uses the stream derived from
(seed, stream index), so equal seeds reproduce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys

from .corpus import (build_cover_corpus, build_matching_corpus,
                     build_sparsification_hypergraphs)
from .cover import f_approx_bucketed, f_approx_online, hdelta_cover, verify_cover
from .errors import CoverSamplerError, InvalidConfig
from .instance import (Hypergraph, generate_random_hypergraph,
                       generate_random_instance, parse_instance, parse_text,
                       serialize_hypergraph, serialize_instance)
from .matching import hypergraph_matching, verify_matching
from .mpc_sim import (amplify_to_whp, plan_phases, simulate_degree_estimation,
                      simulate_mpc_f_approx, sparsify_non_isolated_counts)
from .oracle import (exact_min_cover, f_approx_bound, hdelta_bound,
                     matching_bound, measure_ratio)
from .schedule import compute_b, make_schedule
from .ssp import (SspConfig, builtin_adversaries, check_step_lemmas,
                  estimate_conditional_multiplicity, estimate_expected_rz,
                  minimum_steps)
from .util import _Z95, derive_rng, mean_ci95

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID_SOLUTION = 2
EXIT_STAT_FAILURE = 3

COVER_ALGS = ("f-online", "f-bucketed", "hdelta")
ALL_CHECKS = ("sample-mean", "multiplicity", "step-bounds", "sparsification",
              "cover-ratio", "matching-ratio")


def _emit(rows: list[dict], fmt: str) -> None:
    if fmt == "json":
        json.dump(rows, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return
    if not rows:
        return
    fieldnames: list[str] = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    writer = csv.DictWriter(sys.stdout, fieldnames=fieldnames, restval="")
    writer.writeheader()
    writer.writerows(rows)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_target(args):
    """Enforce exactly one input source: a file or generator parameters."""
    sources = [s for s in (args.input, getattr(args, "gen_sc", None)) if s]
    if len(sources) != 1:
        raise CoverSamplerError("exactly one input source required "
                                "(INPUT path or --gen-sc S:T:D)")
    if getattr(args, "gen_sc", None):
        try:
            num_sets, num_elements, degree = (int(x) for x in args.gen_sc.split(":"))
        except ValueError as exc:
            raise CoverSamplerError("--gen-sc expects S:T:D integers") from exc
        return generate_random_instance(num_sets, num_elements, degree,
                                        seed=args.seed)
    return parse_text(_read_text(args.input))


def cmd_solve(args) -> int:
    target = _load_target(args)
    if args.oracle_delta is not None and args.alg != "hdelta":
        raise CoverSamplerError("--oracle-delta applies only to --alg hdelta")
    if args.alg == "match":
        if not isinstance(target, Hypergraph):
            raise CoverSamplerError("--alg match needs a hypergraph input")
        if args.calibrated:
            raise CoverSamplerError("--calibrated applies only to the cover algorithms")
        if args.target_eps is not None:
            if args.eps is not None:
                raise CoverSamplerError("give --eps or --target-eps, not both")
            h = max(target.rank, 1)
            eps_internal = args.target_eps / h
        else:
            eps_internal = args.eps
        if eps_internal is None:
            raise CoverSamplerError("--eps or --target-eps required")
        solver = hypergraph_matching
        maximize = True
    else:
        if isinstance(target, Hypergraph):
            raise CoverSamplerError(f"--alg {args.alg} needs a set-cover input")
        if args.target_eps is not None:
            raise CoverSamplerError("--target-eps applies only to --alg match")
        eps_internal = args.eps
        if eps_internal is None:
            raise CoverSamplerError("--eps required")
        if args.calibrated:
            # a 4x longer schedule buys the tighter (1+eps) guarantee; the
            # caller's eps must be in range either way
            compute_b(eps_internal)
            eps_internal /= 4.0
        if args.alg == "hdelta":
            solver = functools.partial(hdelta_cover, oracle_delta=args.oracle_delta or 0.0)
        else:
            solver = f_approx_online if args.alg == "f-online" else f_approx_bucketed
        maximize = False

    validator = verify_matching if args.alg == "match" else verify_cover
    solution, counters, copy_index = amplify_to_whp(
        solver, target, eps_internal, args.copies, seed=args.seed,
        maximize=maximize, validator=validator)
    valid, witness = validator(target, solution)
    row = {
        "alg": args.alg,
        "eps": args.eps if args.eps is not None else "",
        "internal_eps": eps_internal,
        "seed": args.seed,
        "copies": args.copies,
        "copy_index": copy_index,
        "size": solution.size,
        "valid": valid,
        "witness": "" if witness is None else witness,
        **dataclasses.asdict(counters),
    }
    _emit([row], args.format)
    return EXIT_OK if valid else EXIT_INVALID_SOLUTION


def _parse_sweep(text: str) -> list[int]:
    try:
        lo, hi, step = (int(x) for x in text.split(":"))
    except ValueError as exc:
        raise CoverSamplerError("--delta-sweep expects LO:HI:STEP integers") from exc
    if step < 1 or hi < lo:
        raise CoverSamplerError("--delta-sweep needs LO <= HI and STEP >= 1")
    return list(range(lo, hi + 1, step))


def cmd_mpc(args) -> int:
    if args.j is not None and args.alg != "hdelta-inner":
        raise CoverSamplerError("--j applies only to --alg hdelta-inner")
    if (args.f is not None or args.n is not None) and not args.delta_sweep:
        raise CoverSamplerError("--f and --n apply only to --delta-sweep")
    rows: list[dict] = []
    if args.delta_sweep:
        if args.eps is None:
            raise CoverSamplerError("--eps required for a planner sweep")
        if args.input:
            raise CoverSamplerError("--delta-sweep plans phases and reads no instance file")
        if args.alg == "hdelta-inner":
            raise CoverSamplerError("--delta-sweep runs the planner, not --alg hdelta-inner")
        if args.seed is not None:
            raise CoverSamplerError("--delta-sweep draws nothing, so it takes no --seed")
        for exp in _parse_sweep(args.delta_sweep):
            delta = 2 ** exp
            plan = plan_phases(delta, 2 if args.f is None else args.f, args.eps,
                               2 ** 20 if args.n is None else args.n)
            cumulative = 0
            for idx, phase in enumerate(plan.phases):
                cumulative += phase.rounds
                rows.append({
                    "delta_exp": exp, "delta": delta, "k": plan.k,
                    "phase_index": idx, "case": phase.case_tag,
                    "r_j": phase.length, "tau": f"{phase.tau:.6g}",
                    "cumulative_rounds": cumulative,
                    "predicted_mpc_rounds": plan.predicted_mpc_rounds,
                })
        _emit(rows, args.format)
        return EXIT_OK
    if not args.input:
        raise CoverSamplerError("an instance file (or --delta-sweep) is required")
    if args.eps is None:
        raise CoverSamplerError("--eps required")
    instance = parse_instance(_read_text(args.input))
    rng = derive_rng(args.seed or 0, 0)
    if args.alg == "hdelta-inner":
        trace = simulate_degree_estimation(instance, args.eps, args.j or 0, rng)
        for batch in trace.batches:
            rows.append({
                "level": trace.level, "q": f"{trace.q:.6g}",
                "threshold": f"{trace.threshold:.6g}", "step": batch.step,
                "set_ids": ";".join(str(s) for s in batch.set_ids),
                "estimates": ";".join(f"{e:.4g}" for e in batch.estimates),
                "true_sizes": ";".join(str(t) for t in batch.true_sizes),
            })
        _emit(rows, args.format)
        return EXIT_OK
    cover, report = simulate_mpc_f_approx(instance, args.eps, rng)
    if not report.phases:
        rows.append({"phase_index": 0, "case": 0, "r_j": 0,
                     "sampled_prob_start": 0.0, "relevant_elements": 0,
                     "max_ball": 0, "residual_degree_after": 0,
                     "cumulative_rounds": 0})
    for rec in report.phases:
        rows.append({
            "phase_index": rec.index, "case": rec.case_tag, "r_j": rec.length,
            "sampled_prob_start": f"{rec.p_start:.6g}",
            "relevant_elements": rec.relevant_elements,
            "max_ball": rec.max_ball,
            "residual_degree_after": rec.residual_degree_after,
            "cumulative_rounds": rec.cumulative_rounds,
        })
    _emit(rows, args.format)
    valid, _ = verify_cover(instance, cover)
    return EXIT_OK if valid else EXIT_INVALID_SOLUTION


def _row(check: str, passed: bool, **fields) -> dict:
    row = {"check": check}
    row.update(fields)
    row["passed"] = passed
    return row


def cmd_verify_lemmas(args) -> int:
    checks = set(args.check) if args.check else set(ALL_CHECKS)
    unknown = checks - set(ALL_CHECKS)
    if unknown:
        raise CoverSamplerError(f"unknown checks: {sorted(unknown)}")
    eps_grid = args.eps if args.eps else [0.05, 0.1, 0.25, 0.5]
    n_grid = args.n if args.n else [10, 100, 1000]
    adversaries = builtin_adversaries()
    if args.adversary:
        missing = [a for a in args.adversary if a not in adversaries]
        if missing:
            raise CoverSamplerError(f"unknown adversaries: {missing}; "
                                    f"choose from {sorted(adversaries)}")
        adversaries = {a: adversaries[a] for a in args.adversary}
    if args.trials < 0:
        raise InvalidConfig(f"--trials must be nonnegative, got {args.trials}")
    rows: list[dict] = []
    cell = 0

    for check, estimate, bound_at, grid in (
            ("sample-mean", lambda cfg: estimate_expected_rz(cfg, args.trials),
             lambda eps: 1.0 + 4.0 * eps, eps_grid),
            ("multiplicity",
             lambda cfg: estimate_conditional_multiplicity(cfg, 0, args.trials),
             lambda eps: 6.0 * eps, [e for e in eps_grid if e <= 0.25])):
        if check not in checks:
            continue
        for eps in grid:
            for n in n_grid:
                for name, adv in adversaries.items():
                    cfg = SspConfig(initial_size=n, eps=eps, adversary=adv,
                                    seed=args.seed + cell)
                    cell += 1
                    value, ci = estimate(cfg)
                    bound = bound_at(eps)
                    rows.append(_row(check, value - ci <= bound, eps=eps, n=n,
                                     adversary=name, value=f"{value:.5f}",
                                     ci95=f"{ci:.5f}", bound=f"{bound:.5f}"))

    if "step-bounds" in checks:
        for eps in eps_grid:
            for n in n_grid:
                k = minimum_steps(n, eps)
                sched = make_schedule(eps, k)
                constant = [n] * (k + 1)
                shrinking = [max(1, n - (n * idx) // (2 * k + 2))
                             for idx in range(k + 1)]
                ok = (check_step_lemmas(sched, constant).ok
                      and check_step_lemmas(sched, shrinking).ok)
                rows.append(_row("step-bounds", ok, eps=eps, n=n, value="",
                                 ci95="", bound=""))

    if "sparsification" in checks:
        hgs = build_sparsification_hypergraphs(args.seed)
        trials = max(args.trials // 10, 1000)
        for p in (args.p if args.p else [0.05, 0.1, 0.3]):
            for idx, hg in enumerate(hgs):
                counts = sparsify_non_isolated_counts(
                    hg, p, trials, derive_rng(args.seed, 100 + cell))
                cell += 1
                mean, ci = mean_ci95(counts)
                sem = ci / _Z95
                bound = p * hg.avg_rank * hg.num_edges
                rows.append(_row("sparsification", mean <= bound + 3 * sem,
                                 p=p, hypergraph=idx, value=f"{mean:.4f}",
                                 ci95=f"{ci:.4f}", bound=f"{bound:.4f}"))

    if "cover-ratio" in checks:
        corpus = build_cover_corpus(count=args.corpus_size, seed=args.seed + 77)
        for idx, inst in enumerate(corpus):
            opt = exact_min_cover(inst)
            for alg, solver, bound in (
                    ("f-bucketed", f_approx_bucketed, f_approx_bound(inst, 0.1)),
                    ("hdelta", hdelta_cover, hdelta_bound(inst, 0.1))):
                report = measure_ratio(solver, inst, 0.1, args.ratio_trials,
                                       derive_rng(args.seed, 200 + cell), bound,
                                       opt=opt)
                cell += 1
                rows.append(_row("cover-ratio", report.passed, instance=idx,
                                 alg=alg, value=f"{report.mean_ratio:.4f}",
                                 ci95=f"{report.ci95:.4f}",
                                 bound=f"{report.bound:.4f}", opt=report.opt))

    if "matching-ratio" in checks:
        for idx, hg in enumerate(build_matching_corpus(args.seed + 78)):
            eps = 0.01
            report = measure_ratio(hypergraph_matching, hg, eps, args.ratio_trials,
                                   derive_rng(args.seed, 300 + cell),
                                   matching_bound(hg, eps), maximize=True)
            cell += 1
            rows.append(_row("matching-ratio", report.passed, hypergraph=idx,
                             rank=hg.rank, value=f"{report.mean_ratio:.4f}",
                             ci95=f"{report.ci95:.4f}",
                             bound=f"{report.bound:.4f}", opt=report.opt))

    if not rows:
        raise CoverSamplerError("the selected checks ran no cell (multiplicity "
                                "runs only at eps <= 0.25; a cover-ratio corpus "
                                "needs --corpus-size >= 1)")
    _emit(rows, args.format)
    failures = [r for r in rows if not r["passed"]]
    for r in failures:
        print(f"FAILED {r}", file=sys.stderr)
    return EXIT_STAT_FAILURE if failures else EXIT_OK


def cmd_generate(args) -> int:
    if args.kind == "sc":
        inst = generate_random_instance(args.sets, args.elements, args.degree,
                                        seed=args.seed)
        text = serialize_instance(inst)
    else:
        hg = generate_random_hypergraph(args.vertices, args.edges, args.rank,
                                        seed=args.seed, min_size=args.min_size)
        text = serialize_hypergraph(hg)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with `EXIT_USAGE`, not 2; subparsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cover-sampler",
        description="Sampling-based set cover and hypergraph matching toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a solver on an instance")
    solve.add_argument("input", nargs="?", help="instance file ('-' for stdin)")
    solve.add_argument("--alg", required=True,
                       choices=COVER_ALGS + ("match",))
    solve.add_argument("--eps", type=float)
    solve.add_argument("--target-eps", type=float,
                       help="matching only: overall guarantee, run internally "
                            "at target/rank")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--calibrated", action="store_true",
                       help="cover algorithms only: run the schedule at eps/4 "
                            "for the tighter factor")
    solve.add_argument("--oracle-delta", type=float,
                       help="hdelta only: noisy size oracle over-approximation")
    solve.add_argument("--copies", type=int, default=1,
                       help="independent runs; best valid solution wins")
    solve.add_argument("--gen-sc", help="generate the input: S:T:D")
    solve.add_argument("--format", choices=("csv", "json"), default="csv")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify-lemmas", help="run the check suites")
    verify.add_argument("--check", action="append", choices=ALL_CHECKS,
                        help="repeatable; default runs everything")
    verify.add_argument("--eps", type=float, action="append")
    verify.add_argument("--n", type=int, action="append")
    verify.add_argument("--adversary", action="append")
    verify.add_argument("--p", type=float, action="append",
                        help="sparsification keep-probabilities")
    verify.add_argument("--trials", type=int, default=20000)
    verify.add_argument("--ratio-trials", type=int, default=60)
    verify.add_argument("--corpus-size", type=int, default=12)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--format", choices=("csv", "json"), default="csv")
    verify.set_defaults(func=cmd_verify_lemmas)

    mpc = sub.add_parser("mpc", help="phase planning and simulation")
    mpc.add_argument("input", nargs="?", help="set-cover instance file")
    mpc.add_argument("--alg", choices=("phase-sim", "hdelta-inner"),
                     default="phase-sim")
    mpc.add_argument("--eps", type=float)
    mpc.add_argument("--f", type=int,
                     help="planner frequency for --delta-sweep (default 2)")
    mpc.add_argument("--n", type=int, help="planner n for --delta-sweep (default 2**20)")
    mpc.add_argument("--delta-sweep", help="LO:HI:STEP exponents of 2")
    mpc.add_argument("--j", type=int,
                     help="size level for --alg hdelta-inner (default 0)")
    mpc.add_argument("--seed", type=int,
                     help="simulation seed (default 0); not with --delta-sweep")
    mpc.add_argument("--format", choices=("csv", "json"), default="csv")
    mpc.set_defaults(func=cmd_mpc)

    gen = sub.add_parser("generate", help="write fixture files")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    gen_sc = gen_sub.add_parser("sc")
    gen_sc.add_argument("--sets", type=int, required=True)
    gen_sc.add_argument("--elements", type=int, required=True)
    gen_sc.add_argument("--degree", type=int, required=True)
    gen_sc.add_argument("--seed", type=int, default=0)
    gen_sc.add_argument("-o", "--output", default="-")
    gen_sc.set_defaults(func=cmd_generate, kind="sc")
    gen_hg = gen_sub.add_parser("hg")
    gen_hg.add_argument("--vertices", type=int, required=True)
    gen_hg.add_argument("--edges", type=int, required=True)
    gen_hg.add_argument("--rank", type=int, required=True)
    gen_hg.add_argument("--min-size", type=int, default=None)
    gen_hg.add_argument("--seed", type=int, default=0)
    gen_hg.add_argument("-o", "--output", default="-")
    gen_hg.set_defaults(func=cmd_generate, kind="hg")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CoverSamplerError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
