"""Sampling-based set cover and hypergraph matching, with a Monte Carlo
verification harness and a desk-scale distributed-execution simulator."""

from .cover import (BatchRecord, CostCounters, Cover, f_approx_bucketed,
                    f_approx_online, hdelta_cover, verify_cover)
from .errors import (CoverSamplerError, EmptyEdge, InfeasibleInstance,
                     InsufficientSamples, InsufficientTrials, InvalidConfig,
                     InvalidEpsilon, ParseError, TooLarge)
from .instance import (Hypergraph, SetCoverInstance, generate_random_hypergraph,
                       generate_random_instance, parse_hypergraph, parse_instance,
                       serialize_hypergraph, serialize_instance, to_hypergraph)
from .matching import Matching, hypergraph_matching, verify_matching
from .mpc_sim import (MpcReport, PhasePlan, amplify_to_whp,
                      plan_phases, simulate_degree_estimation,
                      simulate_mpc_f_approx)
from .oracle import (RatioReport, exact_max_matching, exact_min_cover,
                     f_approx_bound, greedy_cover, harmonic, hdelta_bound,
                     matching_bound, measure_ratio)
from .schedule import (AliasTable, Schedule, alias_for_schedule, bucket_distribution,
                       build_alias, compute_b, make_schedule, probabilities,
                       probability, sample_alias, schedule_for_frequency,
                       schedule_for_max_size, schedule_length_outer)
from .ssp import (AdaptiveKillOnNearMiss, Adversary, DeleteSampledNeighbors,
                  HalveEachStep, Identity, SspConfig, SspTrace,
                  builtin_adversaries, check_step_lemmas,
                  estimate_conditional_multiplicity, estimate_expected_rz,
                  minimum_steps, run_ssp)
from .util import derive_rng

__version__ = "0.1.0"
