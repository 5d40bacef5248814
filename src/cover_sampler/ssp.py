"""Sampling process over an adversarially shrinking pool.

Steps run from k down to 0.  Before each step an adversary deletes some pool
items, seeing the step and the pool (every earlier sample is empty, so there
is nothing more to see); then every survivor enters the step's sample
independently with the schedule probability.  The process stops at the first
step whose sample is nonempty; ``z`` is that step's index (-1 if no sample
ever lands) and ``r_z`` the sample size there.

`run_ssp` executes one run faithfully on item ids, for any adversary.  The
estimators handle large trial counts by drawing (z, r_z) from the process's
exact stopping law, built from the adversary's size-only view
(`Adversary.stopping_law`); they refuse an adversary without one.
Each deterministic shrinking adversary states one pool-size rule
(`_SizeRule.next_size`); its `shrink` and `size_sequence` follow from it.
Tests cross-validate the closed form against `run_ssp` and exact values.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InsufficientSamples, InsufficientTrials, InvalidConfig
from .schedule import (Schedule, make_schedule, probabilities, probability,
                       schedule_length_outer)
from .util import derive_rng, mean_ci95, proportion_ci95

MIN_TRIALS = 1000


class Adversary(ABC):
    """Shrinks the pool between sampling steps.

    ``shrink`` receives the step about to be sampled and the current pool
    as an id set, and must return a subset; the earlier samples are all
    empty, so they are not passed.  ``keep`` names an item the adversary
    must not delete.  Built-ins also expose a size-only view,
    `stopping_law`, which the estimators need.
    Deterministic shrinkers subclass the private `_SizeRule` and state only
    its pool-size rule ``next_size``.
    """

    name = "adversary"

    @abstractmethod
    def shrink(self, sched: Schedule, step: int, alive: set[int],
               rng: np.random.Generator, keep: int | None = None) -> set[int]:
        raise NotImplementedError

    def size_sequence(self, sched: Schedule, initial_size: int,
                      protect: bool) -> np.ndarray | None:
        """Pool size at each step 0..k when the trajectory is deterministic."""
        return None

    def stopping_law(self, sched: Schedule, initial_size: int,
                     protect: bool) -> tuple[np.ndarray, np.ndarray] | None:
        """Per step i = 0..k, the count c_i of unprotected items and the
        hazard h_i of each: the chance it is sampled at step i given that no
        sample landed above i.  Items must be independent given that event.
        The protected item is left out; it is never deleted, so its hazard
        is p_i.  None when the adversary has no size-only view.
        """
        seq = self.size_sequence(sched, initial_size, protect)
        if seq is None:
            return None
        return np.asarray(seq, dtype=np.int64) - int(protect), probabilities(sched)


class Identity(Adversary):
    """Never deletes anything."""

    name = "identity"

    def shrink(self, sched, step, alive, rng, keep=None):
        return set(alive)

    def size_sequence(self, sched, initial_size, protect):
        return np.full(sched.k + 1, initial_size, dtype=np.int64)


def _keep_lowest(alive: set[int], target: int, keep: int | None) -> set[int]:
    ids = sorted(alive)
    kept = ids[:target]
    if keep is not None and keep in alive and keep not in kept:
        if not kept:
            kept = [keep]
        else:
            kept[-1] = keep
    return set(kept)


class _SizeRule(Adversary):
    """One size rule, ``next_size``: the pool size left before a step.
    `shrink` keeps that many of the lowest ids, the protected one among them,
    and `size_sequence` applies the rule from step k down."""

    @abstractmethod
    def next_size(self, sched: Schedule, step: int, n: int, protect: bool) -> int:
        raise NotImplementedError

    def shrink(self, sched, step, alive, rng, keep=None):
        target = self.next_size(sched, step, len(alive), keep is not None)
        if target >= len(alive):
            return set(alive)
        return _keep_lowest(alive, target, keep)

    def size_sequence(self, sched, initial_size, protect):
        seq = np.empty(sched.k + 1, dtype=np.int64)
        seq[sched.k] = initial_size
        for i in range(sched.k - 1, -1, -1):
            seq[i] = self.next_size(sched, i, int(seq[i + 1]), protect)
        return seq


class HalveEachStep(_SizeRule):
    """Deletes half the pool (lowest ids survive) every step."""

    name = "halve"

    def next_size(self, sched, step, n, protect):
        return max(int(protect), n // 2)


class DeleteSampledNeighbors(Adversary):
    """Deletes each item independently with a fixed per-step rate, modelling
    items removed because unrelated structures got covered elsewhere."""

    name = "delete-sampled"

    def __init__(self, rate: float = 0.5):
        if not (0.0 <= rate <= 1.0):
            raise InvalidConfig("rate must lie in [0, 1]")
        self.rate = rate

    def shrink(self, sched, step, alive, rng, keep=None):
        out = set()
        for t in sorted(alive):
            if t == keep or rng.random() >= self.rate:
                out.add(t)
        return out

    def stopping_law(self, sched, initial_size, protect):
        # Deletions are oblivious and independent per item, so given no
        # sample above step i each item is alive there with the same chance
        # rho_i, independently of the others.
        p = probabilities(sched).tolist()
        hazard = np.empty(sched.k + 1)
        rho = 1.0
        for i in range(sched.k, -1, -1):
            hazard[i] = rho * p[i]
            if i:
                rho *= (1.0 - p[i]) * (1.0 - self.rate) / (1.0 - hazard[i])
        counts = np.full(sched.k + 1, initial_size - int(protect), dtype=np.int64)
        return counts, hazard


class AdaptiveKillOnNearMiss(_SizeRule):
    """Whenever the step just executed expected at least eps*(1+eps) samples,
    keeps the constant fraction 0.1 of the pool (rounded down, never below
    the protected item).  Exercises the adaptive side of the adversary
    interface (every sample before the stop step is empty)."""

    name = "near-miss"

    def next_size(self, sched, step, n, protect):
        if probability(step + 1, sched) * n >= sched.eps * (1.0 + sched.eps):
            return max(int(protect), int(n * 0.1))
        return n


def builtin_adversaries() -> dict[str, Adversary]:
    return {
        "identity": Identity(),
        "halve": HalveEachStep(),
        "delete-sampled": DeleteSampledNeighbors(0.5),
        "near-miss": AdaptiveKillOnNearMiss(),
    }


@dataclass(frozen=True)
class SspConfig:
    """One process setup.  ``k`` defaults to the minimum admissible length,
    which keeps the initial expected sample count at most eps."""

    initial_size: int
    eps: float
    adversary: Adversary = field(default_factory=Identity)
    k: int | None = None
    seed: int = 0
    marked: int | None = None


@dataclass(frozen=True)
class SspTrace:
    """Executed steps as (step, pool size, sample size) triples, the stop
    index z (-1 when no sample ever lands) and the final sample size."""

    steps: tuple[tuple[int, int, int], ...]
    z: int
    r_z: int
    contains_marked: bool


def minimum_steps(initial_size: int, eps: float) -> int:
    if initial_size < 1:
        raise InvalidConfig("initial_size must be >= 1")
    return schedule_length_outer(initial_size, eps)


def _resolve_schedule(config: SspConfig) -> Schedule:
    kmin = minimum_steps(config.initial_size, config.eps)
    k = kmin if config.k is None else config.k
    if k < kmin:
        raise InvalidConfig(f"k={k} below the required minimum {kmin}")
    if config.marked is not None and not (0 <= config.marked < config.initial_size):
        raise InvalidConfig("marked item id outside the initial pool")
    return make_schedule(config.eps, k)


def run_ssp(config: SspConfig) -> SspTrace:
    """Execute one run on item ids, stopping at the first nonempty sample.
    Steps after the stop never influence (z, |R_z|), so they are skipped."""
    sched = _resolve_schedule(config)
    rng = derive_rng(config.seed)
    alive = set(range(config.initial_size))
    records: list[tuple[int, int, int]] = []
    for i in range(sched.k, -1, -1):
        if i < sched.k:
            alive = config.adversary.shrink(sched, i, alive, rng, keep=config.marked)
            if config.marked is not None and config.marked not in alive:
                raise InvalidConfig("adversary deleted the protected item")
        n_i = len(alive)
        if n_i == 0:
            records.append((i, 0, 0))
            break
        p_i = probability(i, sched)
        cnt = int(rng.binomial(n_i, p_i))
        sampled: set[int] = set()
        if cnt:
            ids = sorted(alive)
            sampled = set(int(x) for x in rng.choice(ids, size=cnt, replace=False))
        records.append((i, n_i, len(sampled)))
        if sampled:
            contains = config.marked is not None and config.marked in sampled
            return SspTrace(tuple(records), z=i, r_z=len(sampled),
                            contains_marked=contains)
    return SspTrace(tuple(records), z=-1, r_z=0, contains_marked=False)


def _conditional_binomial(n: np.ndarray, p: np.ndarray,
                          rng: np.random.Generator) -> np.ndarray:
    """Binomial(n, p) conditioned on being >= 1, drawn exactly.

    The index J of the first success, given at least one among n trials, is a
    truncated geometric with closed-form inverse CDF; the trials after J are
    unconditioned, so the total is 1 + Binomial(n - J, p).  Exact for any p,
    including the tiny success probabilities where rejection would stall.
    """
    n = np.asarray(n, dtype=np.int64)
    p = np.asarray(p, dtype=float)
    out = np.empty(n.shape, dtype=np.int64)
    ones = p >= 1.0
    out[ones] = n[ones]
    rest = ~ones
    if rest.any():
        nn = n[rest]
        pp = p[rest]
        log1mp = np.log1p(-pp)
        at_least_one = -np.expm1(nn * log1mp)
        u = rng.random(nn.shape[0])
        first = np.log1p(-u * at_least_one) / log1mp
        j = np.clip(np.ceil(first), 1, nn).astype(np.int64)
        out[rest] = 1 + rng.binomial(nn - j, pp)
    return out


def _zr_from_law(counts: np.ndarray, hazards: np.ndarray,
                 marked_p: np.ndarray | None, trials: int,
                 rng: np.random.Generator):
    """Draw |R_z| and whether the protected item is in R_z from a stopping law.

    Given no sample above step i, each of the ``counts[i]`` unprotected items
    is sampled at step i independently with chance ``hazards[i]``, and the
    protected item, when ``marked_p`` is given, with chance ``marked_p[i]``.
    With e_i the chance that step i samples nothing,
    P(z = i) = (1 - e_i) * prod_{j>i} e_j.  Given z = i the protected item is
    sampled with chance marked_p[i] / (1 - e_i); the unprotected count is
    Binomial(c_i, h_i), conditioned on >= 1 when the protected item is not
    sampled.  This is the exact stopping distribution, not an approximation.
    """
    kk = len(counts) - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        log_rest = np.where(counts > 0, counts * np.log1p(-hazards), 0.0)
        log_empty = log_rest if marked_p is None else log_rest + np.log1p(-marked_p)
        # survival strictly above step i
        suffix = np.concatenate([np.cumsum(log_empty[::-1])[::-1], [0.0]])
        stop_here = -np.expm1(log_empty)
        stop_p = np.exp(suffix[1:]) * stop_here
    outcome_p = np.concatenate([stop_p[::-1], [float(np.exp(suffix[0]))]])
    cdf = np.cumsum(outcome_p)
    u = rng.random(trials) * cdf[-1]
    idx = np.minimum(np.searchsorted(cdf, u, side="right"), kk + 1)
    z = np.where(idx <= kk, kk - idx, -1).astype(np.int64)
    r = np.zeros(trials, dtype=np.int64)
    marked = np.zeros(trials, dtype=bool)
    hit = np.flatnonzero(z >= 0)
    if marked_p is not None:
        zi = z[hit]
        # where no unprotected item can be sampled the protected one stops
        # the process; the guard keeps rounding from drawing an empty rest
        share = np.where(log_rest[zi] < 0, marked_p[zi] / stop_here[zi], 1.0)
        marked[hit] = rng.random(hit.size) < share
        both = hit[marked[hit]]
        r[both] = 1 + rng.binomial(counts[z[both]], hazards[z[both]])
        hit = hit[~marked[hit]]
    r[hit] = _conditional_binomial(counts[z[hit]], hazards[z[hit]], rng)
    return r, marked


def _batch_zr(config: SspConfig, sched: Schedule, trials: int,
              rng: np.random.Generator, protect: bool):
    law = config.adversary.stopping_law(sched, config.initial_size, protect)
    if law is None:
        raise InvalidConfig(f"adversary {config.adversary.name!r} has no stopping "
                            "law to estimate from; run_ssp runs it one trial at a time")
    counts, hazards = law
    marked_p = probabilities(sched) if protect else None
    return _zr_from_law(counts, hazards, marked_p, trials, rng)


def _estimate_zr(config: SspConfig, trials: int, marked: int | None = None):
    """|R_z| and marked-item membership of ``trials`` seeded runs, the
    adversary protecting the marked item when one is given.  The unprotected
    and the protected estimates draw from streams 1 and 2 of the seed."""
    if trials < MIN_TRIALS:
        raise InsufficientTrials(f"need at least {MIN_TRIALS} trials, got {trials}")
    protect = marked is not None
    if protect and not (0 <= marked < config.initial_size):
        raise InvalidConfig("marked item id outside the initial pool")
    rng = derive_rng(config.seed, 2 if protect else 1)
    return _batch_zr(config, _resolve_schedule(config), trials, rng, protect)


def estimate_expected_rz(config: SspConfig, trials: int) -> tuple[float, float]:
    """Monte Carlo mean of |R_z| (a run that never samples contributes 0)
    with a 95% confidence half-width."""
    r, _ = _estimate_zr(config, trials)
    return mean_ci95(r)


def estimate_conditional_multiplicity(config: SspConfig, marked: int,
                                      trials: int) -> tuple[float, float]:
    """Rejection estimate of P(|R_z| > 1 given the marked item is in R_z).

    The adversary is run in protected mode so the marked item survives to the
    sampling; the trials in which it is sampled at the stop step are accepted.
    """
    r, accepted = _estimate_zr(config, trials, marked)
    total = int(accepted.sum())
    if total == 0:
        raise InsufficientSamples("no trial had the marked item sampled")
    multi = int(((r > 1) & accepted).sum())
    return proportion_ci95(multi, total)


@dataclass(frozen=True)
class StepLemmaReport:
    """Deterministic step-level inequality checks for a size trajectory."""

    ok: bool
    violations: tuple[tuple[str, int, float, float], ...]


def check_step_lemmas(sched: Schedule, sizes_desc: Sequence[int]) -> StepLemmaReport:
    """Verify, for the given non-increasing size trajectory (listed in
    simulation order, largest step first):

    (a) the first b steps have expected sample count at most eps,
    (b) the expected sample count grows at most by (1+eps) over b steps,
    (c) E[|R_i| given R_i nonempty] = p n / (1 - (1-p)^n) <= 1 + p n.
    """
    sizes = np.asarray(list(sizes_desc), dtype=np.int64)[::-1]
    k = sched.k
    if sizes.size != k + 1:
        raise InvalidConfig(f"need {k + 1} sizes, got {sizes.size}")
    if np.any(np.diff(sizes) < 0):
        raise InvalidConfig("sizes must be non-increasing in simulation order")
    if sizes[k] < 1:
        raise InvalidConfig("initial pool must be nonempty")
    if k < minimum_steps(int(sizes[k]), sched.eps):
        raise InvalidConfig("schedule too short for the initial pool size")
    p = probabilities(sched)
    expct = p * sizes
    tol = 1e-12
    violations: list[tuple[str, int, float, float]] = []
    for j in range(k - sched.b + 1, k + 1):
        if expct[j] > sched.eps * (1 + tol) + tol:
            violations.append(("low-initial", j, float(expct[j]), sched.eps))
    bound_factor = 1.0 + sched.eps
    for i in range(0, k - sched.b + 1):
        rhs = bound_factor * expct[i + sched.b]
        if expct[i] > rhs * (1 + tol) + tol:
            violations.append(("slow-increase", i, float(expct[i]), float(rhs)))
    for i in range(k + 1):
        n_i = int(sizes[i])
        if n_i < 1:
            continue
        nonempty = -math.expm1(n_i * math.log1p(-p[i])) if p[i] < 1.0 else 1.0
        cond_mean = expct[i] / nonempty
        rhs = 1.0 + expct[i]
        if cond_mean > rhs * (1 + tol) + tol:
            violations.append(("conditional-mean", i, float(cond_mean), float(rhs)))
    return StepLemmaReport(ok=not violations, violations=tuple(violations))
