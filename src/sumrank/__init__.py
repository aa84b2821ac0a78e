"""Bounds, volumes and genericity experiments for sum-rank-metric codes.

The sum-rank weight of a word over F_{q^m}, split into ell blocks of length
eta, is the sum of the F_q-ranks of the blocks' m-by-eta expansions.  This
package computes exact sphere/ball volumes for that metric, evaluates the
Singleton, sphere-packing and Gilbert-Varshamov bounds (exact, simplified and
asymptotic forms), bounds the probability that random systematic codes attain
the Singleton bound, and validates everything against enumeration and
Monte-Carlo simulation of codes over explicitly constructed field towers.
"""

from .bounds import (
    gv_asymptotic_rate,
    gv_holds,
    gv_max_k,
    gv_simplified_holds,
    gv_simplified_max_k,
    singleton_max_k,
    sp_asymptotic_rate,
    sp_holds,
    sp_max_k,
    sp_simplified_holds,
    sp_simplified_max_k,
)
from .codes import (
    LinearCode,
    ResourceLimitError,
    TrialResult,
    ambient_field,
    block_rank_profile,
    echelon_blocks_iter,
    echelon_count,
    is_msrd,
    min_distance_bruteforce,
    monte_carlo,
    random_systematic_code,
    sum_rank_weight,
)
from .combinatorics import (
    binomial,
    gamma_q,
    log_gamma_q,
    nm_count,
    nm_lower_bound_logq,
    partition_count,
    partitions_iter,
    q_binomial,
)
from .fields import (
    ExtensionField,
    PrimeField,
    ext_make,
    field_make,
    matrix_rank,
)
from .genericity import (
    GvAttainment,
    ProbabilityBound,
    gv_attainment_dimension,
    gv_attainment_epsilon_max,
    min_extension_degree,
    msrd_prob_bounds_BR,
    msrd_prob_lb_A,
    msrd_prob_lb_U,
)
from .volumes import (
    CodeParams,
    VolumeTable,
    ball_volume,
    sphere_lower_bound_logq,
    sphere_upper_bound_logq,
    sphere_volume,
    sphere_volume_direct,
    volume_table,
)

__version__ = "0.1.0"

__all__ = [
    "CodeParams",
    "ExtensionField",
    "GvAttainment",
    "LinearCode",
    "PrimeField",
    "ProbabilityBound",
    "ResourceLimitError",
    "TrialResult",
    "VolumeTable",
    "ambient_field",
    "ball_volume",
    "binomial",
    "block_rank_profile",
    "echelon_blocks_iter",
    "echelon_count",
    "ext_make",
    "field_make",
    "gamma_q",
    "gv_asymptotic_rate",
    "gv_attainment_dimension",
    "gv_attainment_epsilon_max",
    "gv_holds",
    "gv_max_k",
    "gv_simplified_holds",
    "gv_simplified_max_k",
    "is_msrd",
    "log_gamma_q",
    "matrix_rank",
    "min_distance_bruteforce",
    "min_extension_degree",
    "monte_carlo",
    "msrd_prob_bounds_BR",
    "msrd_prob_lb_A",
    "msrd_prob_lb_U",
    "nm_count",
    "nm_lower_bound_logq",
    "partition_count",
    "partitions_iter",
    "q_binomial",
    "random_systematic_code",
    "singleton_max_k",
    "sp_asymptotic_rate",
    "sp_holds",
    "sp_max_k",
    "sp_simplified_holds",
    "sp_simplified_max_k",
    "sphere_lower_bound_logq",
    "sphere_upper_bound_logq",
    "sphere_volume",
    "sphere_volume_direct",
    "sum_rank_weight",
    "volume_table",
]
