"""Shared helpers: seeded RNG streams, guarded rounding, normal confidence intervals."""

from __future__ import annotations

import math

import numpy as np

# Tolerance used when a float should be an exact integer (or hit an exact
# threshold) but accumulated rounding error puts it a hair off.  Keeps ceil,
# floor and threshold tests platform independent.
INTEGER_GUARD = 1e-9

_Z95 = 1.959963984540054


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for (seed, *path); identical arguments give an
    identical stream, distinct paths give statistically independent streams."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *(int(p) for p in path)]))


def guarded_ceil(x: float) -> int:
    r = round(x)
    if abs(x - r) <= INTEGER_GUARD:
        return int(r)
    return int(math.ceil(x))


def guarded_floor(x: float) -> int:
    r = round(x)
    if abs(x - r) <= INTEGER_GUARD:
        return int(r)
    return int(math.floor(x))


def meets_threshold(value: float, threshold: float) -> bool:
    """value >= threshold, forgiving float error just below the boundary."""
    return value >= threshold * (1.0 - INTEGER_GUARD)


def mean_ci95(values) -> tuple[float, float]:
    """Sample mean and its 95% normal-approximation confidence half-width."""
    arr = np.asarray(values, dtype=float)
    n = arr.size
    if n == 0:
        raise ValueError("mean of an empty sample")
    mean = float(arr.mean())
    if n == 1:
        return mean, 0.0
    sd = float(arr.std(ddof=1))
    return mean, _Z95 * sd / math.sqrt(n)


def proportion_ci95(successes: int, total: int) -> tuple[float, float]:
    """Proportion estimate and its 95% normal-approximation half-width."""
    if total <= 0:
        raise ValueError("proportion of an empty sample")
    p = successes / total
    return p, _Z95 * math.sqrt(max(p * (1.0 - p), 0.0) / total)

