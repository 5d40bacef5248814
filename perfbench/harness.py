"""Measurement machinery shared by the workloads.

* `Tracer` keeps spans in memory (name, start, end, parent, op id) and writes
  them out at exit; `self_times` turns them into per-span self time.
* `Layer` gives attribute access to one package module; with a tracer every
  public function comes back wrapped in a span named ``<module>.<function>``.
  The package itself is never modified: only the benchmark's own calls into
  it are wrapped.
* `calibrate` times three fixed interpreter loops that never call the package;
  `Runner` runs it between ops, so that each op's time can be scaled to a
  reference speed of the machine.
* `Runner` runs a workload's ops: GC outside the clock, one clock per op,
  output checks, failure counts and digests of seeded outputs.
* The statistics helpers give medians and the tail percentile.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import importlib
import inspect
import json
import math
import os
import platform
import resource
import statistics
import time
from array import array
from collections import defaultdict
from types import SimpleNamespace

import numpy as np

LAYERS = ("instance", "schedule", "cover", "matching", "ssp", "mpc_sim",
          "oracle", "cli")

TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10

# Time of the calibration at the reference speed: a time scaled to it is the
# time the same work takes on a machine that runs the calibration this fast.
REFERENCE_CALIBRATION_NS = 15_000_000
# An op's time is scaled by the calibration samples taken within this many
# seconds of the two around it: on the hosts measured, the speed holds for a
# second or more, while a single sample can land in a momentary dip.
CALIBRATION_WINDOW_S = 0.5


# --------------------------------------------------------------- calibration

class _Pair:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _add(a: int, b: int) -> int:
    return a + b


def _arithmetic_loop() -> int:
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    return acc


def _object_loop() -> int:
    table: dict[int, _Pair] = {}
    run: list[int] = []
    acc = 0
    for i in range(12_000):
        pair = _Pair(i, i & 255)
        table[i * 7919 % 4096] = pair
        run.append(pair.value)
        acc = _add(acc, table.get(i * 31 % 4096, pair).key & 15)
        if i % 64 == 63:
            run.sort()
            acc += run[len(run) // 2]
            run.clear()
    return acc


@functools.cache
def _chase_table() -> array:
    """2**23 int32 links (32 MiB, far beyond L2) of one full-period linear
    congruential cycle, so that following them is a chain of dependent
    cache misses that no prefetcher predicts."""
    n = 1 << 23
    table = array("i")
    for lo in range(0, n, 1 << 20):
        idx = np.arange(lo, lo + (1 << 20), dtype=np.int64)
        table.frombytes(((idx * 1103515245 + 12345) & (n - 1)).astype(np.int32).tobytes())
    return table


def _chase_loop() -> int:
    table = _chase_table()
    i = 0
    for _ in range(60_000):
        i = table[i]
    return i


def calibrate() -> int:
    """Geometric mean, in nanoseconds, of the times of three fixed loops in
    the interpreter that never call the package: integer arithmetic; object
    allocation, calls, dict lookups and sorting; and a chain of dependent
    loads from a table far larger than L2.

    The benchmark runs on shared hosts whose speed drifts by a third within
    a few minutes, and not by the same factor for all code: a loop that
    stays in L1 gains more in a fast stretch than one that waits on memory.
    The geometric mean of the three loops tracks the package's own code, on
    small cache-resident instances and on ones far larger than L3 alike,
    so the ratio of an op's time to the calibration next to it is set by
    the program, not by the host's momentary speed."""
    _chase_table()
    t0 = time.perf_counter_ns()
    _arithmetic_loop()
    t1 = time.perf_counter_ns()
    _object_loop()
    t2 = time.perf_counter_ns()
    _chase_loop()
    t3 = time.perf_counter_ns()
    return round(((t1 - t0) * (t2 - t1) * (t3 - t2)) ** (1 / 3))


def speed_scale(calibration_ns) -> float:
    """Factor that turns a time measured among these calibration samples
    into the time at the reference speed."""
    return REFERENCE_CALIBRATION_NS / median(calibration_ns)


# ---------------------------------------------------------------- statistics

def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def rank_index(n: int, q: float) -> int:
    """0-based nearest-rank index of percentile q among n sorted samples."""
    return max(0, math.ceil(q * n / 100.0) - 1)


def tail_percentile(n: int) -> float | None:
    """Highest percentile of TAIL_LADDER with at least MIN_BEYOND of n samples
    ranked strictly beyond it; None when even the median has too few."""
    for q in TAIL_LADDER:
        if n - (rank_index(n, q) + 1) >= MIN_BEYOND:
            return q
    return None


def tail(values) -> tuple[float | None, float, int]:
    """(percentile, its value, samples beyond it) by `tail_percentile`; the
    value is 0 when there are too few samples for any percentile."""
    ordered = sorted(values)
    q = tail_percentile(len(ordered))
    if q is None:
        return None, 0.0, 0
    idx = rank_index(len(ordered), q)
    return q, float(ordered[idx]), len(ordered) - idx - 1


# ------------------------------------------------------------------- tracing

class Tracer:
    """Spans as ``[name, start_ns, end_ns, parent index, op id]`` lists.

    Calls are single threaded, so the innermost open span is the parent of
    the next one.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op_id: str | None = None

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = [name, 0, 0, parent, self.op_id]
        self.spans.append(span)
        self._open.append(idx)
        span[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._open.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")


def self_times(spans) -> list[int]:
    """Per span: its duration minus the part of its interval covered by its
    direct children (overlapping children are counted once)."""
    children: dict[int, list[int]] = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(idx)
    out = []
    for idx, span in enumerate(spans):
        start, end = span[1], span[2]
        covered, cursor = 0, start
        for c in sorted(children.get(idx, ()), key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], cursor), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


class Layer:
    """One package module; with a tracer its public functions are wrapped."""

    def __init__(self, module, name: str, tracer: Tracer | None):
        self._module = module
        self._name = name
        self._tracer = tracer

    def __getattr__(self, attr: str):
        obj = getattr(self._module, attr)
        if (self._tracer is not None and not attr.startswith("_")
                and inspect.isfunction(obj)):
            obj = self._tracer.wrap(f"{self._name}.{attr}", obj)
        setattr(self, attr, obj)
        return obj


def layers(tracer: Tracer | None) -> SimpleNamespace:
    return SimpleNamespace(**{
        name: Layer(importlib.import_module(f"cover_sampler.{name}"), name, tracer)
        for name in LAYERS})


# -------------------------------------------------------------------- runner

class GcCounter:
    """Counts collections that start while `active` (inside timed ops)."""

    def __init__(self):
        self.active = False
        self.count = 0

    def __call__(self, phase, info):
        if phase == "start" and self.active:
            self.count += 1


class PassRecord:
    """What one pass over the op list measured."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.op_ns: dict[str, int] = {}
        # one before the first op and one after each op, with the
        # perf_counter time each was taken at
        self.calibration_ns: list[int] = []
        self.calibration_at: list[float] = []
        # per op, the index of the calibration sample taken before it
        self.op_calibration: dict[str, int] = {}
        # verified-solve time inside ops that also do other work
        self.solve_ns: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)
        # (op, seconds) of calls timed inside ops
        self.clocked: dict[str, list[tuple[str, float]]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self.digests: dict[str, str] = {}
        self.gc_collections = 0
        self.span_range = (0, 0)

    @property
    def wall_s(self) -> float:
        return sum(self.op_ns.values()) / 1e9

    def scale(self, op: str) -> float:
        """Factor scaling the op's times to the reference speed, from the
        samples taken within CALIBRATION_WINDOW_S of the two around it."""
        before = self.op_calibration[op]
        lo = self.calibration_at[before] - CALIBRATION_WINDOW_S
        hi = self.calibration_at[before + 1] + CALIBRATION_WINDOW_S
        return speed_scale([ns for ns, at in zip(self.calibration_ns, self.calibration_at)
                            if lo <= at <= hi])

    def calibrate(self) -> None:
        self.calibration_ns.append(calibrate())
        self.calibration_at.append(time.perf_counter())


def digest(payload) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


class Runner:
    """Runs ops and keeps the books: time, checks, failures, digests."""

    def __init__(self, error_type):
        self.error_type = error_type
        self.tracer = Tracer()
        self.plain = layers(None)
        self.traced = layers(self.tracer)
        self.passes: list[PassRecord] = []
        self.rec: PassRecord | None = None
        self.L = self.plain
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.gc_counter = GcCounter()
        gc.callbacks.append(self.gc_counter)

    def close(self) -> None:
        gc.callbacks.remove(self.gc_counter)

    @contextlib.contextmanager
    def new_pass(self, traced: bool):
        self.rec = PassRecord(traced)
        self.L = self.traced if traced else self.plain
        start = len(self.tracer.spans)
        before = self.gc_counter.count
        try:
            yield self.rec
        finally:
            self.rec.gc_collections = self.gc_counter.count - before
            self.rec.span_range = (start, len(self.tracer.spans))
            self.passes.append(self.rec)
            self.rec = None
            self.L = self.plain

    def op(self, key: str, fn):
        """Time one op (GC collected beforehand, outside the clock) and take
        a calibration sample after it.  A raised package error is a failed
        op and returns None."""
        gc.collect()
        rec = self.rec
        if not rec.calibration_ns:
            rec.calibrate()
        rec.op_calibration[key] = len(rec.calibration_ns) - 1
        self.tracer.op_id = key
        self.gc_counter.active = True
        t0 = time.perf_counter_ns()
        try:
            if rec.traced:
                out = self.tracer.call("op", fn)
            else:
                out = fn()
        except self.error_type as exc:
            out = None
            self.attempt(key, False, f"{type(exc).__name__}: {exc}")
        finally:
            rec.op_ns[key] = time.perf_counter_ns() - t0
            self.gc_counter.active = False
            self.tracer.op_id = None
            rec.calibrate()
        return out

    def clock(self, name: str, fn, *args, **kwargs):
        """Time a call inside an op; (op, seconds) go to clocked[name]."""
        t0 = time.perf_counter_ns()
        out = fn(*args, **kwargs)
        self.rec.clocked[name].append((self.tracer.op_id, (time.perf_counter_ns() - t0) / 1e9))
        return out

    def call(self, name: str, fn, *args, **kwargs):
        """Call a package function the Layer facade cannot reach (such as a
        classmethod), in a span when the pass is traced."""
        if self.rec is not None and self.rec.traced:
            return self.tracer.call(name, fn, *args, **kwargs)
        return fn(*args, **kwargs)

    def solved(self, ns: int) -> None:
        """Add verified-solve time to the running op."""
        self.rec.solve_ns[self.tracer.op_id] += ns

    def attempt(self, key: str, ok: bool, detail: str) -> None:
        """One checked output; a failed check keeps its detail (first 20)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{key}: {detail}")

    def record(self, key: str, payload) -> None:
        self.rec.digests[key] = digest(payload)

    def sample(self, name: str, value: float) -> None:
        self.rec.samples[name].append(value)

    def count(self, name: str, value: float) -> None:
        self.rec.counts[name] += value


# --------------------------------------------------------------- environment

def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def rss_mb() -> float:
    """Current resident set size, from /proc when available."""
    statm = _read("/proc/self/statm").split()
    if len(statm) >= 2:
        return int(statm[1]) * os.sysconf("SC_PAGE_SIZE") / 2 ** 20
    return peak_rss_mb()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine() -> dict:
    cpu = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for entry in sorted(os.listdir(base)):
            level = _read(f"{base}/{entry}/level")
            kind = _read(f"{base}/{entry}/type")
            if level in ("2", "3") and kind != "Instruction":
                caches[f"L{level}"] = _read(f"{base}/{entry}/size")
    return {
        "cpu": cpu or platform.processor(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
