"""Benchmark for cover-sampler.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``).  Fixtures are generated from the seed in a separate process, then
whole passes over the workload's op list run for about S seconds (at least
two passes).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run context (machine, versions, sizes, seeds, pass times and the
calibration loop's times).  With ``--trace 0`` the metrics are the
end-to-end ones: medians over the run's passes of times scaled to a
reference machine speed by calibration loops run between ops (see
`metrics.end_to_end`).  With ``--trace 1`` untraced and traced
passes alternate: the traced ones wrap every benchmark call into a package
module in a span and give the per-layer metrics, and the difference between
the two kinds of pass is the tracing overhead.  Spans are written to
``.perfbench_out/spans-<workload>-s<seed>.jsonl`` and each result, with the
digests of its first pass, to ``.perfbench_out/<workload>-s<seed>-t<trace>.json``.

Exit codes: 0 all outputs correct, 2 no package to measure, 3 an output was
wrong (the result line is still printed).
"""

from __future__ import annotations

import os

# One thread for every BLAS/OpenMP runtime, before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
             "COVER_SAMPLER_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

import harness  # noqa: E402
import metrics  # noqa: E402
from fixtures import SIZES  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
FIXTURE_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve-large", "verify-grid", "mpc-phases"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="input sizes; 'toy' exists for the benchmark's tests")
    return parser.parse_args(argv)


def make_fixtures(workload: str, seed: int, scale: str, outdir: str) -> tuple[float, dict]:
    """Generate fixtures in a child process; returns (wall seconds, metadata)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "fixtures.py"),
                           workload, str(seed), scale, outdir],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=FIXTURE_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"fixture generation failed with exit code {proc.returncode}")
    with open(os.path.join(outdir, "fixtures.json"), encoding="utf-8") as fh:
        return wall, json.load(fh)


def set_up(args, run_dir: str):
    """Imports, then fixture process and warm-up repeated ``setup_reps``
    times, each timed between two calibration samples and scaled to the
    reference speed; the last repetition's fixtures are the ones measured."""
    t0 = time.perf_counter()
    import cover_sampler
    import workloads
    import_s = time.perf_counter() - t0
    if not os.path.abspath(cover_sampler.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported {cover_sampler.__file__}, not the checkout's package")
    cls = workloads.WORKLOADS[args.workload]
    setup = defaultdict(list)
    workload = None
    for rep in range(cls.setup_reps if args.scale == "full" else 1):
        if workload is not None:
            shutil.rmtree(workload.dir, ignore_errors=True)
        fixture_dir = os.path.join(run_dir, f"setup-{rep}")
        os.makedirs(fixture_dir)
        before = harness.calibrate()
        gen_wall, meta = make_fixtures(args.workload, args.seed, args.scale, fixture_dir)
        workload = cls(args.seed, SIZES[args.scale][args.workload], fixture_dir, meta)
        t0 = time.perf_counter()
        alias_ms = workload.warm_up()
        wall = import_s + gen_wall + time.perf_counter() - t0
        setup["total_s"].append(wall * harness.speed_scale([before, harness.calibrate()]))
        setup["generate_s"].append(meta["timings"]["generate_s"])
        setup["serialize_s"].append(meta["timings"]["serialize_s"])
        setup["alias_build_ms"].append(alias_ms)
    return workload, setup, workloads.ERROR_TYPE


def measure(workload, runner, seconds: float, trace: bool) -> float:
    """The whole number of passes closest to ``seconds``: another pass
    starts while, at the length of the last one, it would end less than half
    a pass after ``seconds``.  At least two passes, so that every op has a
    median; in a traced run untraced and traced passes alternate."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        with runner.new_pass(trace and len(runner.passes) % 2 == 1):
            workload.run_pass(runner)
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if len(runner.passes) >= 2 and elapsed + last / 2 > seconds:
            return elapsed


def run(args, run_dir: str) -> int:
    workload, setup, error_type = set_up(args, run_dir)
    runner = harness.Runner(error_type)
    measured_s = measure(workload, runner, args.seconds, bool(args.trace))
    runner.close()
    peak_rss = harness.peak_rss_mb()

    plain = [r for r in runner.passes if not r.traced]
    if args.trace:
        reference = metrics.reference_digests(args.scale, args.workload, args.seed)
        values = metrics.layer_metrics(runner, workload, setup, reference)
        runner.tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-s{args.seed}.jsonl"))
    else:
        values = metrics.end_to_end(workload, setup, plain, peak_rss)
    context = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "measured_s": measured_s, "trace": args.trace,
        "passes": len(runner.passes), "setup_reps": len(setup["total_s"]),
        "pass_walls_s": [r.wall_s for r in runner.passes],
        "calibration_ms": harness.median(ns / 1e6 for r in runner.passes
                                         for ns in r.calibration_ns),
        "reference_calibration_ms": harness.REFERENCE_CALIBRATION_NS / 1e6,
        "machine": harness.machine(), "sizes": workload.meta["sizes"],
        "fixture_bytes": sum(workload.meta["files"].values()),
        "failures": runner.failures,
    }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }
    with open(os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"context": context, **result, "digests": runner.passes[0].digests},
                  fh, indent=1)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0 if result["correct"] else 3


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cover_sampler", "__init__.py")):
        print(f"error: no package to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    run_dir = os.path.join(WORK_DIR, f"{args.workload}-s{args.seed}-{os.getpid()}")
    try:
        return run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
