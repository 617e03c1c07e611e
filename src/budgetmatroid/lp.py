"""Exact LP over the matroid polytope under a residual budget.

solve_polytope_lp maximizes p.x over {x in P_M : c.x <= budget} through its
Lagrangian dual, min over lambda >= 0 of lambda*budget + max{w.x : x in P_M}
with w = p - lambda*c, whose inner maximum is the greedy algorithm on the
positive weights (Ravi and Goemans, SWAT 1996; Berger, Bonifaci, Grandoni
and Schaefer, Math. Prog. 2011).  The dual is the upper envelope of one line
p(S) + lambda*(budget - c(S)) per independent set S.  Newton's method for
this parametric problem (Dinkelbach 1967; Radzik 1992, "Newton's method for
fractional combinatorial optimization"), in the line-intersection form of
Eisner and Severance (JACM 1976), finds the optimal multiplier lambda*: it
intersects the lines of an over-budget and an affordable greedy set, runs
greedy at the intersection and stops when that greedy set's line passes
through it, one greedy pass per step.  Walking from the greedy order just
left of lambda* to the one just right of it, one tie or zero weight at a
time, changes the greedy set by one addition, removal or swap per step; the
two sets on either side of the budget give a budget-tight convex
combination that is a vertex with at most two fractional entries.  Every
solve checks primal = dual in exact arithmetic and the two-fractional
bound.

The tests compare solves on up to 9 elements with
``verify.solve_polytope_lp_reference``.  A vertex of the feasible region
lies on a vertex or an edge of P_M, and an edge joins two independent sets,
so the reference takes the best affordable set or budget-tight mix of two
sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import InternalInvariantError, PreconditionError
from .instance import BmiInstance
from .matroid import Matroid, contract, greedy, restrict

ZERO = Fraction(0)


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
class LpOutcome:
    point: FractionalPoint
    objective: Fraction
    fractional_support: tuple[int, ...]
    multiplier: Fraction  # optimal dual multiplier lambda* of the budget row


def _walk(seq: list[int], w: Mapping[int, Fraction], costs) -> Iterable[list[int]]:
    """Orders from the greedy order just left of lambda* to the one just right.

    ``seq`` starts as the left order.  Zero-weight elements, last in it,
    leave one at a time; then adjacent elements tied at lambda* swap one
    pair at a time into the right order.  Every order stays sorted by
    non-increasing weight at lambda*, and each step changes the greedy set
    by at most one addition, removal or swap.  ``seq`` is updated in place.
    """
    yield seq
    while seq and w[seq[-1]] == 0:
        seq.pop()
        yield seq
    right = lambda e: (-w[e], costs[e], e)
    swapped = True
    while swapped:
        swapped = False
        for i in range(len(seq) - 1):
            if right(seq[i]) > right(seq[i + 1]):
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                swapped = True
                yield seq


def solve_polytope_lp(
    m: Matroid,
    profits: Mapping[int, Fraction],
    costs: Mapping[int, Fraction],
    budget: Fraction,
) -> LpOutcome:
    """Exact basic optimum of max{p.x : c.x <= budget, x in P_M, x >= 0}."""
    if budget < 0:
        raise PreconditionError("negative residual budget")
    domain = tuple(sorted(m.ground))
    items = [e for e in domain if profits[e] > 0]
    cost = lambda s: sum((costs[e] for e in s), ZERO)
    profit = lambda s: sum((profits[e] for e in s), ZERO)
    reduced = lambda s, lam: sum((profits[e] - lam * costs[e] for e in s), ZERO)

    # The greedy set just right of lambda = 0: equal profits are ordered by
    # cost, so it is the cheapest set of maximum profit.
    heavy = greedy(m, sorted(items, key=lambda e: (-profits[e], costs[e], e)))
    if cost(heavy) <= budget:
        lam, light, theta = ZERO, heavy, ZERO
    else:
        # Newton steps: ``heavy`` stays over budget and ``light``, first the
        # greedy set for lambda -> infinity, affordable.  When the greedy set
        # where their lines meet lies on that point, lambda minimizes the
        # dual, and no smaller lambda does: the line of ``heavy`` falls.
        zero_cost = sorted((e for e in items if costs[e] == 0), key=lambda e: (-profits[e], e))
        light = greedy(m, zero_cost)
        while True:
            lam = (profit(heavy) - profit(light)) / (cost(heavy) - cost(light))
            w = {e: profits[e] - lam * costs[e] for e in items}
            probe = greedy(m, sorted((e for e in items if w[e] > 0), key=lambda e: (-w[e], e)))
            if reduced(probe, lam) == reduced(heavy, lam):
                break
            if cost(probe) > budget:
                heavy = probe
            else:
                light = probe

        left = sorted((e for e in items if w[e] >= 0), key=lambda e: (-w[e], -costs[e], e))
        heavy = None
        for seq in _walk(left, w, costs):
            light = greedy(m, seq)
            if heavy is not None and cost(heavy) > budget >= cost(light):
                break
            heavy = light
        else:
            raise InternalInvariantError("greedy walk never crossed the budget")
        theta = (budget - cost(light)) / (cost(heavy) - cost(light))

    values: dict[int, Fraction] = {}
    for e in heavy:
        values[e] = theta
    for e in light:
        values[e] = values.get(e, ZERO) + (1 - theta)
    values = {e: v for e, v in values.items() if v != 0}
    point = FractionalPoint(domain, values)
    objective = sum((profits[e] * v for e, v in values.items()), ZERO)

    # Primal = dual: x is feasible and p.x equals the Lagrangian bound at lam.
    dual = lam * budget + reduced(light, lam)
    if reduced(heavy, lam) != reduced(light, lam) or objective != dual:
        raise InternalInvariantError("parametric greedy: primal value differs from dual bound")
    if sum((costs[e] * v for e, v in values.items()), ZERO) > budget:
        raise InternalInvariantError("parametric greedy: point exceeds the budget")
    fractional = tuple(e for e in domain if 0 < point[e] < 1)
    LP_STATS.record(len(fractional))
    if len(fractional) > 2:
        raise InternalInvariantError(
            f"basic LP solution has {len(fractional)} fractional entries (limit 2)"
        )
    return LpOutcome(point, objective, fractional, lam)


def lp_variables(inst: BmiInstance, eps: Fraction, alpha: Fraction) -> frozenset:
    """Active elements cheap enough in profit to be LP variables: p(e) <= 2 eps alpha."""
    return frozenset(e for e in inst.active if inst.profits[e] <= 2 * eps * alpha)


def residual_matroid(inst: BmiInstance, f: frozenset, variables: frozenset) -> Matroid:
    """The contracted-and-restricted matroid whose polytope the LP uses;
    ``variables`` is the guess's ``lp_variables``."""
    m = inst.active_matroid()
    # Contracting nothing is the identity; skipping it spares the bootstrap
    # LP and every F = {} solve a wrapper on each oracle call.
    return restrict(contract(m, f) if f else m, variables - f)


def solve_lp(inst: BmiInstance, f: Iterable[int], variables: frozenset) -> LpOutcome:
    """Exact basic optimum of the budget-constrained polytope LP given fixed,
    independent F, over the elements of ``variables`` outside F."""
    fs = frozenset(f)
    if inst.cost(fs) > inst.budget:
        raise PreconditionError("F exceeds the budget")
    residual = residual_matroid(inst, fs, variables)
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
    if not inst.active:
        return ZERO, ZERO
    outcome = solve_lp(inst, frozenset(), inst.active)
    integral = round_integral(inst, outcome, frozenset())
    best_singleton = max(inst.profits[e] for e in inst.active)
    lower = max(inst.profit(integral), best_singleton)
    upper = outcome.objective
    if 3 * lower < upper:
        raise InternalInvariantError("bootstrap gap exceeded the factor-3 bound")
    return upper, lower
