"""Seeded corpora used by the verification harness and the acceptance suite.
All builders are deterministic in their seed."""

from __future__ import annotations

from .instance import (Hypergraph, SetCoverInstance, generate_random_hypergraph,
                       generate_random_instance)
from .util import derive_rng


def build_cover_corpus(count: int = 100, seed: int = 20240901) -> list[SetCoverInstance]:
    """Random instances with at most 25 sets and 80 elements, cycling the
    element frequency through 2, 3 and 4.  Small enough for the exact oracle."""
    rng = derive_rng(seed)
    out = []
    for idx in range(count):
        f = 2 + idx % 3
        num_sets = int(rng.integers(max(12, f), 26))
        num_elements = int(rng.integers(30, 81))
        out.append(generate_random_instance(num_sets, num_elements, f,
                                            seed=int(rng.integers(2 ** 31))))
    return out


def build_matching_corpus(seed: int = 20240902) -> list[Hypergraph]:
    """Rank 2 and rank 3 hypergraphs with at most 25 edges."""
    rng = derive_rng(seed)
    shapes = [(2, 10, 16), (2, 14, 22), (2, 16, 25),
              (3, 9, 16), (3, 12, 22), (3, 15, 25)]
    return [generate_random_hypergraph(v, e, rank, seed=int(rng.integers(2 ** 31)))
            for rank, v, e in shapes]


def build_sparsification_hypergraphs(seed: int = 20240903) -> list[Hypergraph]:
    """Three hypergraphs with different ranks and mean edge sizes."""
    rng = derive_rng(seed)
    return [
        generate_random_hypergraph(30, 60, 3, seed=int(rng.integers(2 ** 31))),
        generate_random_hypergraph(40, 80, 4, seed=int(rng.integers(2 ** 31)), min_size=2),
        generate_random_hypergraph(24, 50, 2, seed=int(rng.integers(2 ** 31))),
    ]
