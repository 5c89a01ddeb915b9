"""Supercatalysis toolkit for bipartite pure states at the Schmidt-vector level.

LOCC convertibility, entanglement catalysis, and supercatalytic gain
optimization for probability vectors of squared Schmidt coefficients.
"""

from .catalysis import (CatalystInterval, CatalyticPair, is_catalyst,
                        least_entangled_rank2_catalyst, most_entangled_rank2_catalyst,
                        necessary_conditions_4d, rank2_catalyst_interval, returned_rank_bound)
from .errors import (CatalysisError, DomainError, EmptyCatalystSet, IndexOutOfRange,
                     InvalidConfiguration, InvalidEpsilon, NegativeEntry, NotACatalyst,
                     NotNormalized, PreconditionViolated, ZeroDenominator)
from .oracle import grid_catalyst_interval, grid_gmax_rank2
from .schmidt import (EXACT_POLICY, FLOAT_POLICY, NORM_TOL, ComparisonPolicy, SchmidtVector,
                      binary_entropy, entropy, kron, majorizes, make_schmidt,
                      nielsen_convertible, partial_sum, prefix_sums, schmidt_rank,
                      split_partial_sum)
from .supercatalysis import (EpsilonFamily, EpsilonFamilyReport, GainResult, SupercatalysisVerdict,
                             SweepPoint, SweepResult, bound_gmax, check_supercatalytic,
                             epsilon_family, gain, gmax_given_c, rank_reduce_returned,
                             tilde_gmax_sweep, trivial_swap_construction, verify_epsilon_family)

__version__ = "0.1.0"

__all__ = [
    "CatalysisError", "CatalystInterval", "CatalyticPair",
    "ComparisonPolicy", "DomainError", "EXACT_POLICY",
    "EmptyCatalystSet", "EpsilonFamily", "EpsilonFamilyReport", "FLOAT_POLICY", "GainResult",
    "IndexOutOfRange", "InvalidConfiguration", "InvalidEpsilon", "NORM_TOL", "NegativeEntry",
    "NotACatalyst", "NotNormalized", "PreconditionViolated", "SchmidtVector",
    "SupercatalysisVerdict", "SweepPoint", "SweepResult", "ZeroDenominator",
    "binary_entropy", "bound_gmax", "check_supercatalytic", "entropy", "epsilon_family", "gain",
    "gmax_given_c", "grid_catalyst_interval", "grid_gmax_rank2", "is_catalyst", "kron",
    "least_entangled_rank2_catalyst", "majorizes", "make_schmidt",
    "most_entangled_rank2_catalyst", "necessary_conditions_4d", "nielsen_convertible",
    "partial_sum", "prefix_sums", "rank2_catalyst_interval", "rank_reduce_returned",
    "returned_rank_bound", "schmidt_rank", "split_partial_sum", "tilde_gmax_sweep",
    "trivial_swap_construction", "verify_epsilon_family",
]
