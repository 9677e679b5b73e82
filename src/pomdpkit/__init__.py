"""pomdpkit: exact and approximate POMDP solving with structural checks.

Modules
-------
model        POMDP/MDP data model, validation, cost reductions
orders       stochastic orders, TP2/copositivity tests, Blackwell factor
filters      belief recursions, the batched Bayes kernel and the path sampler
bounds       dominating transition matrices and the sandwich filter
solver       vector-set solvers (incremental pruning, Monahan, bounds)
grid         simplex lattice and the shared grid backup engine
stopgrid     grid DP for stopping models
structural   monotone structure verifiers
myopic       myopic policy bounds, overlap volume, percent loss
threshold    linear threshold policies and SPSA fitting
apps         builders for the bundled application examples
presets      benchmark parameter sets
cli          batch command-line front end
"""

from .errors import (
    Blowup,
    DimensionMismatch,
    InvalidProbability,
    LpInfeasible,
    LpNumericFailure,
    NegativeEntry,
    NonIncreasingLevels,
    NonStochasticRow,
    NonTransient,
    NotTP2,
    OrderingViolation,
    PomdpKitError,
    PreconditionFailed,
    PriorMassOnState1,
    ZeroLikelihood,
)
from .model import (
    PomdpModel,
    QuadraticCost,
    StoppingModel,
    belief,
    model_from_json,
    model_to_json,
    quantized_gaussian_observation,
    reduce_general_cost,
    stochastic_matrix,
    validate_model,
)
from .orders import (
    Comparison,
    OrderVerdict,
    Verdict,
    blackwell_factorize,
    check_F4,
    copositive_order_full,
    copositive_order_transitions,
    fosd_compare,
    is_tp2,
    mdp_monotone_report,
    mlr_compare,
    tail_sum_supermodular,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
