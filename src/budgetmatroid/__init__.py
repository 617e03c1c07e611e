"""Budgeted matroid independent set: an efficient approximation scheme with
exact rational arithmetic, plus desk-scale exact oracles.  The property
checkers live in ``budgetmatroid.verify``, which this package does not load."""

from .errors import (
    BudgetMatroidError,
    InternalInvariantError,
    PreconditionError,
    ScaleCapError,
    ValidationError,
)
from .families import FamilySpec, construct
from .generate import GenSpec, generate_instance
from .instance import BmiInstance, make_instance, parse_instance, serialize_instance
from .lp import FractionalPoint, LpOutcome, lp_upper_bound, round_integral, solve_lp
from .matroid import Matroid, contract, min_weight_basis, rank, restrict, truncate
from .oracle import ExactResult, brute_force_opt, knapsack_dp
from .scheme import (
    EpsParam,
    RepresentativeSet,
    RunReport,
    approximate,
    find_rep,
    profit_class,
    run_for_alpha,
)

__all__ = [
    "BmiInstance",
    "BudgetMatroidError",
    "EpsParam",
    "ExactResult",
    "FamilySpec",
    "FractionalPoint",
    "GenSpec",
    "InternalInvariantError",
    "LpOutcome",
    "Matroid",
    "PreconditionError",
    "RepresentativeSet",
    "RunReport",
    "ScaleCapError",
    "ValidationError",
    "approximate",
    "brute_force_opt",
    "construct",
    "contract",
    "find_rep",
    "generate_instance",
    "knapsack_dp",
    "lp_upper_bound",
    "make_instance",
    "min_weight_basis",
    "parse_instance",
    "profit_class",
    "rank",
    "restrict",
    "round_integral",
    "run_for_alpha",
    "serialize_instance",
    "solve_lp",
    "truncate",
]

__version__ = "0.1.0"
