"""Exact LP over the matroid polytope under a residual budget.

solve_lp maximizes profit over {x >= 0, c.x <= budget, x in P_M} by cutting
planes: a working set of rank constraints (seeded with singleton bounds) is
solved by exact rational simplex, then the separation oracle either accepts
the vertex or contributes a violated rank constraint.  A vertex of a
relaxation that is feasible for the full region is a vertex of the full
region, so the accepted point is basic — and therefore has at most two
fractional entries, which is asserted on every solve.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import InternalInvariantError, PreconditionError
from .instance import BmiInstance
from .matroid import Matroid, contract, rank, restrict
from .simplex import simplex_max

ZERO = Fraction(0)
ONE = Fraction(1)


class LpStats:
    """Process-wide counters used by the acceptance suite and reports."""

    def __init__(self):
        self.solves = 0
        self.max_fractional = 0

    def record(self, fractional: int) -> None:
        self.solves += 1
        if fractional > self.max_fractional:
            self.max_fractional = fractional


LP_STATS = LpStats()


@dataclass(frozen=True)
class FractionalPoint:
    domain: tuple[int, ...]
    values: Mapping[int, Fraction] = field(repr=False)

    def __getitem__(self, e: int) -> Fraction:
        return self.values.get(e, ZERO)

    def mass(self, subset: Iterable[int]) -> Fraction:
        return sum((self.values.get(e, ZERO) for e in subset), ZERO)

    def support(self) -> tuple[int, ...]:
        return tuple(e for e in self.domain if self.values.get(e, ZERO) > 0)


@dataclass(frozen=True)
class SeparationResult:
    inside: bool
    violated: frozenset | None = None
    violated_rank: int | None = None
    violated_mass: Fraction | None = None


@dataclass(frozen=True)
class LpOutcome:
    point: FractionalPoint
    objective: Fraction
    fractional_support: tuple[int, ...]
    certificate: tuple[frozenset, ...]


def separate(m: Matroid, x: FractionalPoint) -> SeparationResult:
    """Membership test for the matroid polytope, or a violated rank set.

    Reference implementation: exhaustive minimization of rank(S) - x(S).
    The scan is restricted to the support of x, which is exact: dropping
    zero-mass elements from S never increases rank(S) - x(S), and a
    violation-free support implies membership.
    """
    dom = set(x.domain)
    if not dom <= m.ground:
        raise PreconditionError("point domain not contained in matroid ground")
    for e in x.domain:
        if x[e] < 0:
            raise PreconditionError(f"negative entry for element {e}")
    supp = sorted(x.support())
    rank_cache: dict[frozenset, int] = {}

    def cached_rank(s: frozenset) -> int:
        r = rank_cache.get(s)
        if r is None:
            r = rank(m, s)
            rank_cache[s] = r
        return r

    best_margin = ZERO
    best_set: frozenset | None = None
    for size in range(1, len(supp) + 1):
        for combo in itertools.combinations(supp, size):
            s = frozenset(combo)
            margin = cached_rank(s) - x.mass(s)
            if margin < best_margin:
                best_margin = margin
                best_set = s
    if best_set is None:
        return SeparationResult(True)
    return SeparationResult(
        False,
        violated=best_set,
        violated_rank=cached_rank(best_set),
        violated_mass=x.mass(best_set),
    )


def solve_polytope_lp(
    m: Matroid,
    profits: Mapping[int, Fraction],
    costs: Mapping[int, Fraction],
    budget: Fraction,
) -> LpOutcome:
    """Cutting-plane solve of max{p.x : c.x <= budget, x in P_M, x >= 0}."""
    if budget < 0:
        raise PreconditionError("negative residual budget")
    variables = sorted(m.ground)
    if not variables:
        point = FractionalPoint((), {})
        LP_STATS.record(0)
        return LpOutcome(point, ZERO, (), ())
    index = {e: j for j, e in enumerate(variables)}
    objective = [profits[e] for e in variables]
    rows: list[list[Fraction]] = [[costs[e] for e in variables]]
    rhs: list[Fraction] = [budget]
    working: list[frozenset] = []
    # Singleton bounds keep the working LP bounded from the start.
    for e in variables:
        row = [ZERO] * len(variables)
        row[index[e]] = ONE
        rows.append(row)
        rhs.append(Fraction(rank(m, {e})))
        working.append(frozenset({e}))

    while True:
        xs, objective_value = simplex_max(objective, rows, rhs)
        values = {e: xs[index[e]] for e in variables if xs[index[e]] != 0}
        point = FractionalPoint(tuple(variables), values)
        result = separate(m, point)
        if result.inside:
            break
        s = result.violated
        if s in working:
            raise InternalInvariantError("separation returned an existing constraint")
        row = [ZERO] * len(variables)
        for e in s:
            row[index[e]] = ONE
        rows.append(row)
        rhs.append(Fraction(result.violated_rank))
        working.append(s)

    fractional = tuple(e for e in variables if 0 < point[e] < 1)
    LP_STATS.record(len(fractional))
    if len(fractional) > 2:
        raise InternalInvariantError(
            f"basic LP solution has {len(fractional)} fractional entries (limit 2)"
        )
    return LpOutcome(point, objective_value, fractional, tuple(working))


def lp_variables(inst: BmiInstance, eps: Fraction, alpha: Fraction) -> frozenset:
    """Active elements cheap enough in profit to be LP variables: p(e) <= 2 eps alpha."""
    return frozenset(e for e in inst.active if inst.profits[e] <= 2 * eps * alpha)


def residual_matroid(inst: BmiInstance, f: frozenset, eps: Fraction, alpha: Fraction) -> Matroid:
    """The contracted-and-restricted matroid whose polytope the LP uses."""
    m = inst.active_matroid()
    return restrict(contract(m, f), lp_variables(inst, eps, alpha) - f)


def solve_lp(
    inst: BmiInstance, f: Iterable[int], alpha: Fraction, eps: Fraction
) -> LpOutcome:
    """Exact basic optimum of the budget-constrained polytope LP given fixed F."""
    fs = frozenset(f)
    m = inst.active_matroid()
    if not m.is_independent(fs):
        raise PreconditionError("F must be independent")
    if inst.cost(fs) > inst.budget:
        raise PreconditionError("F exceeds the budget")
    if alpha <= 0:
        raise PreconditionError("alpha must be positive")
    residual = residual_matroid(inst, fs, eps, alpha)
    return solve_polytope_lp(
        residual,
        {e: inst.profits[e] for e in residual.ground},
        {e: inst.costs[e] for e in residual.ground},
        inst.budget - inst.cost(fs),
    )


def round_integral(inst: BmiInstance, outcome: LpOutcome, f: Iterable[int]) -> frozenset:
    """The integral part of the LP vertex joined with F; asserted feasible."""
    fs = frozenset(f)
    chosen = fs | {e for e in outcome.point.domain if outcome.point[e] == 1}
    if not inst.active_matroid().is_independent(chosen):
        raise InternalInvariantError("rounded LP solution is dependent")
    if inst.cost(chosen) > inst.budget:
        raise InternalInvariantError("rounded LP solution exceeds the budget")
    return chosen


def lp_upper_bound(inst: BmiInstance) -> tuple[Fraction, Fraction]:
    """Bootstrap bounds (upper, lower) with lower >= upper / 3.

    One uncapped LP solve over all active elements: upper is the LP optimum
    (>= OPT); lower keeps the better of the integral part and the best
    singleton.  At most two fractional entries, each worth at most one
    singleton profit, give the factor 3.
    """
    m = inst.active_matroid()
    if not m.ground:
        return ZERO, ZERO
    outcome = solve_polytope_lp(
        m,
        {e: inst.profits[e] for e in m.ground},
        {e: inst.costs[e] for e in m.ground},
        inst.budget,
    )
    integral = round_integral(inst, outcome, frozenset())
    best_singleton = max(inst.profits[e] for e in m.ground)
    lower = max(inst.profit(integral), best_singleton)
    upper = outcome.objective
    if 3 * lower < upper:
        raise InternalInvariantError("bootstrap gap exceeded the factor-3 bound")
    return upper, lower
