"""Ground-truth baselines: exact minimum cover, exact maximum matching,
classic greedy, harmonic numbers, and the ratio-measurement harness."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .cover import Cover
from .errors import InvalidConfig, TooLarge
from .instance import Hypergraph, SetCoverInstance
from .util import mean_ci95

EXACT_COVER_LIMIT = 30
EXACT_MATCHING_LIMIT = 25
EXHAUSTIVE_LIMIT = 12


def _bitmasks(rows) -> list[int]:
    """Each row of ids as a Python-int bitmask with bit t set for id t."""
    masks = []
    for row in rows:
        m = 0
        for t in row:
            m |= 1 << t
        masks.append(m)
    return masks


def exact_min_cover(instance: SetCoverInstance) -> int:
    """Exact optimum by branch and bound: branch on the uncovered element in
    the fewest sets, order candidate sets by residual coverage, and start from
    the greedy cover as the upper bound.

    A node is pruned on the larger of two lower bounds: ceil(uncovered/delta),
    and a packing of uncovered elements no two of which share a set (walk them
    lowest first, count one, drop every element its sets reach).  A memo of
    covered masks also prunes a node whose mask was already reached with at
    most as many sets.
    """
    if instance.num_sets > EXACT_COVER_LIMIT:
        raise TooLarge(f"{instance.num_sets} sets exceeds the exact limit {EXACT_COVER_LIMIT}")
    if instance.num_elements == 0:
        return 0
    masks = _bitmasks(instance.set_rows[s] for s in range(instance.num_sets))
    element_sets = [instance.element_rows[t] for t in range(instance.num_elements)]
    # reach[t]: every element sharing a set with t, t included
    reach = [0] * instance.num_elements
    for t, row in enumerate(element_sets):
        for s in row:
            reach[t] |= masks[s]
    full = (1 << instance.num_elements) - 1
    delta = max(instance.delta, 1)
    best = greedy_cover(instance).size
    fewest: dict[int, int] = {}

    def descend(covered: int, count: int) -> None:
        nonlocal best
        if covered == full:
            best = min(best, count)
            return
        # safe because best only falls: the earlier visit searched or pruned
        # this subtree against a best at least as large
        if fewest.get(covered, count + 1) <= count:
            return
        fewest[covered] = count
        uncovered = full & ~covered
        packing = 0
        rem = uncovered
        while rem:
            packing += 1
            rem &= ~reach[(rem & -rem).bit_length() - 1]
        if count + max(packing, -(-(uncovered.bit_count()) // delta)) >= best:
            return
        # branch on the uncovered element with the fewest candidate sets
        pick_sets = None
        rem = uncovered
        while rem:
            t = (rem & -rem).bit_length() - 1
            rem &= rem - 1
            cands = element_sets[t]
            if pick_sets is None or len(cands) < len(pick_sets):
                pick_sets = cands
                if len(cands) == 1:
                    break
        assert pick_sets is not None
        ordered = sorted(pick_sets, key=lambda s: -(masks[s] & uncovered).bit_count())
        for s in ordered:
            descend(covered | masks[s], count + 1)

    descend(0, 0)
    return best


def exact_max_matching(hg: Hypergraph) -> int:
    """Exact maximum matching size by exhaustive search with pruning, over
    bitmasks of each edge's ``vertex_index`` ids, none sized by the header."""
    if hg.num_edges > EXACT_MATCHING_LIMIT:
        raise TooLarge(f"{hg.num_edges} edges exceeds the exact limit {EXACT_MATCHING_LIMIT}")
    bounds, ids = hg.edge_csr[0].tolist(), hg.vertex_index.tolist()
    masks = _bitmasks(ids[a:b] for a, b in zip(bounds, bounds[1:]))
    n = len(masks)
    best = 0

    def descend(idx: int, used: int, count: int) -> None:
        nonlocal best
        best = max(best, count)
        if idx == n or count + (n - idx) <= best:
            return
        if not (masks[idx] & used):
            descend(idx + 1, used | masks[idx], count + 1)
        descend(idx + 1, used, count)

    descend(0, 0, 0)
    return best


def greedy_cover(instance: SetCoverInstance) -> Cover:
    """Classic greedy: repeatedly take the set covering the most uncovered
    elements, lowest id on ties."""
    set_rows, element_rows = instance.set_rows, instance.element_rows
    residual = np.diff(instance.set_csr[0]).tolist()
    covered = [False] * instance.num_elements
    remaining = instance.num_elements
    chosen = []
    while remaining > 0:
        s_best = max(range(instance.num_sets), key=lambda s: (residual[s], -s))
        if residual[s_best] == 0:
            raise AssertionError("uncoverable element in a validated instance")
        chosen.append(s_best)
        for t in set_rows[s_best]:
            if not covered[t]:
                covered[t] = True
                remaining -= 1
                for s2 in element_rows[t]:
                    residual[s2] -= 1
    return Cover(tuple(sorted(chosen)))


def harmonic(d: int) -> float:
    """d-th harmonic number, sum of 1/i for i = 1..d."""
    if d < 1:
        raise InvalidConfig("harmonic number defined for d >= 1")
    return sum(1.0 / i for i in range(1, d + 1))


def f_approx_bound(instance: SetCoverInstance, eps: float) -> float:
    """Expected-ratio bound of the frequency solvers at raw eps."""
    return (1.0 + 4.0 * eps) * max(instance.freq, 1)


def hdelta_bound(instance: SetCoverInstance, eps: float) -> float:
    """Expected-ratio bound of the size-threshold solver with exact sizes."""
    return (1.0 + eps) * (1.0 + 4.0 * eps) * harmonic(max(instance.delta, 1))


def matching_bound(hg: Hypergraph, eps: float) -> float:
    """Expected |M|/OPT lower bound for rank-h matching."""
    h = max(hg.rank, 1)
    return max(0.0, 1.0 - 6.0 * eps * h) / h


@dataclass(frozen=True)
class RatioReport:
    """Solution/optimum ratio statistics over seeded trials.  ``passed`` is
    mean - ci95 <= bound for minimization and mean + ci95 >= bound for
    maximization."""

    trials: int
    mean_ratio: float
    ci95: float
    opt: int
    bound: float
    passed: bool


def measure_ratio(solver, target, eps: float, trials: int,
                  rng: np.random.Generator, bound: float,
                  maximize: bool = False, opt: int | None = None,
                  workers: int = 1) -> RatioReport:
    """Run ``solver(target, eps, child_rng)`` for ``trials`` derived streams
    and compare the solution-size/optimum ratios against ``bound``.

    The optimum comes from the exact oracle matching ``target``'s type unless
    supplied.  A trial's ratio is its solution size over the optimum, so a
    zero-size solution contributes 0; an optimum of 0 never divides, and
    every trial then counts ratio 1.
    Trials run in the calling thread; ``workers`` must be 1.  Fewer than one
    trial raises `InvalidConfig` before the oracle runs.
    """
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers}")
    if trials < 1:
        raise InvalidConfig(f"trials must be >= 1, got {trials}")
    if opt is None:
        if isinstance(target, SetCoverInstance):
            opt = exact_min_cover(target)
        elif isinstance(target, Hypergraph):
            opt = exact_max_matching(target)
        else:
            raise TypeError("target must be a SetCoverInstance or Hypergraph")
    ratios = []
    # rng.spawn(trials)'s children, one at a time, so memory holds only one
    for _ in range(trials):
        solution, _ = solver(target, eps, rng.spawn(1)[0])
        ratios.append(1.0 if opt == 0 else solution.size / opt)
    mean, ci = mean_ci95(ratios)
    passed = (mean + ci >= bound) if maximize else (mean - ci <= bound)
    return RatioReport(trials=trials, mean_ratio=mean, ci95=ci, opt=int(opt),
                       bound=bound, passed=passed)


def exhaustive_min_cover(instance: SetCoverInstance) -> int:
    """Brute-force optimum over all set subsets; cross-checks the branch and
    bound oracle on small instances."""
    if instance.num_sets > EXHAUSTIVE_LIMIT:
        raise TooLarge(f"{instance.num_sets} sets exceeds the exhaustive limit {EXHAUSTIVE_LIMIT}")
    if instance.num_elements == 0:
        return 0
    masks = _bitmasks(instance.set_rows[s] for s in range(instance.num_sets))
    full = (1 << instance.num_elements) - 1
    for size in range(0, instance.num_sets + 1):
        for combo in itertools.combinations(range(instance.num_sets), size):
            acc = 0
            for s in combo:
                acc |= masks[s]
            if acc == full:
                return size
    raise AssertionError("validated instance must be coverable")
