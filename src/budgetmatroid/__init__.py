"""Budgeted matroid independent set: an efficient approximation scheme with
exact rational arithmetic, plus a desk-scale brute-force optimum.  The
property checkers live in ``budgetmatroid.verify``, which this package does
not load."""

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
from .lp import LpOutcome, lp_upper_bound, round_integral, solve_lp
from .matroid import Matroid, min_weight_basis, restrict, truncate
from .oracle import ExactResult, brute_force_opt
from .scheme import (
    EpsParam,
    RepresentativeSet,
    RunReport,
    RunSession,
    approximate,
    find_rep,
    run_for_alpha,
)

__all__ = [
    "BmiInstance",
    "BudgetMatroidError",
    "EpsParam",
    "ExactResult",
    "FamilySpec",
    "GenSpec",
    "InternalInvariantError",
    "LpOutcome",
    "Matroid",
    "PreconditionError",
    "RepresentativeSet",
    "RunReport",
    "RunSession",
    "ScaleCapError",
    "ValidationError",
    "approximate",
    "brute_force_opt",
    "construct",
    "find_rep",
    "generate_instance",
    "lp_upper_bound",
    "make_instance",
    "min_weight_basis",
    "parse_instance",
    "restrict",
    "round_integral",
    "run_for_alpha",
    "serialize_instance",
    "solve_lp",
    "truncate",
]

__version__ = "0.1.0"
