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
through it, one greedy pass per step, and raises if it takes more steps
than there are distinct greedy sets.  Each greedy pass is the matroid
oracle's incremental scan when it has one (see ``matroid.greedy``).
Walking from the greedy order just
left of lambda* to the one just right of it, one tie or zero weight at a
time, changes the greedy set by one addition, removal or swap per step; the
two sets on either side of the budget give a budget-tight convex
combination that is a vertex with at most two fractional entries.  Every
solve checks primal = dual in exact arithmetic and the two-fractional
bound.

The solve runs on integers.  The integer core ``solve_polytope_lp`` takes
profits times D_p and costs and budget times D_c, all integers; lambda is
a pair of integers, and every weight, sum and comparison is exact integer
arithmetic.  The Newton loop carries the cost and profit sums of its two
sets.  The outcome is integer-backed too: ``LpOutcome`` keeps x*u (u the
denominator of theta) and the objective and lambda*, unscaled, as integer
pairs, and builds their Fractions only when they are read.  ``solve_lp``
calls the core once per LP on the instance's ``IntegerView``
(``BmiInstance.view``); the rational entry ``solve_rational_lp`` takes the
lcms of the denominators as D_p and D_c, scales and calls the core.

The tests compare ``solve_rational_lp`` on up to 9 elements with
``verify.solve_polytope_lp_reference``.  A vertex of the feasible region
lies on a vertex or an edge of P_M, and an edge joins two independent sets,
so the reference takes the best affordable set or budget-tight mix of two
sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping

from .errors import InternalInvariantError, PreconditionError
from .instance import BmiInstance, IntegerView, _scaled
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


def _ratio(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms, for den > 0."""
    g = gcd(num, den)
    return num // g, den // g


@dataclass(frozen=True)
class LpOutcome:
    """A basic optimum of the budgeted polytope LP, kept in integers.

    ``xu`` maps each element with x_e > 0 to x_e * u, where u is the
    denominator of the mixing weight theta, so every entry is an integer
    and x_e = 1 exactly when it equals u.  The objective and the optimal
    multiplier lambda* of the budget row are (numerator, denominator)
    pairs in lowest terms.  Every stored value is canonical, so two
    outcomes are equal exactly when their points, objectives, fractional
    supports and multipliers are.  ``point``, ``objective`` and
    ``multiplier`` build the Fractions on access.
    """

    domain: tuple[int, ...]
    xu: Mapping[int, int] = field(repr=False)
    u: int
    fractional_support: tuple[int, ...]
    objective_pair: tuple[int, int]
    multiplier_pair: tuple[int, int]

    @property
    def point(self) -> FractionalPoint:
        u = self.u
        return FractionalPoint(self.domain, {e: Fraction(v, u) for e, v in self.xu.items()})

    @property
    def objective(self) -> Fraction:
        return Fraction(*self.objective_pair)

    @property
    def multiplier(self) -> Fraction:
        return Fraction(*self.multiplier_pair)


def _walk(seq: list[int], w: Mapping[int, int], costs) -> Iterable[list[int]]:
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


def solve_polytope_lp(m: Matroid, P, C, B: int, dp: int, dc: int) -> LpOutcome:
    """Exact basic optimum of max{p.x : c.x <= budget, x in P_M, x >= 0} on integers.

    The integer core.  ``P`` and ``C``, mappings or sequences indexed by
    element, give each element of ``m.ground`` its profit times ``dp`` and
    its cost times ``dc``, all integers, and ``B`` is the budget times
    ``dc``.  At lambda = a/b the greedy order sorts on b*P_e - a*C_e, a
    positive multiple of p_e - lambda*c_e.  ``dp`` and ``dc`` only scale
    the outcome: it keeps the point as the integers x*u, the objective as
    u*dp*p.x over u*dp and lambda* as a*dc over b*dp, all in lowest terms.
    """
    if B < 0:
        raise PreconditionError("negative residual budget")
    domain = tuple(sorted(m.ground))
    items = [e for e in domain if P[e] > 0]
    cost = lambda s: sum(C[e] for e in s)
    profit = lambda s: sum(P[e] for e in s)

    # The greedy set just right of lambda = 0: equal profits are ordered by
    # cost, so it is the cheapest set of maximum profit.  The cost and
    # profit sums of ``heavy`` and ``light`` travel with them.
    heavy = greedy(m, sorted(items, key=lambda e: (-P[e], C[e], e)))
    hc, hp = cost(heavy), profit(heavy)
    if hc <= B:
        a, b, light, lc, lp = 0, 1, heavy, hc, hp
        t, u = 0, 1
    else:
        # Newton steps: ``heavy`` stays over budget and ``light``, first the
        # greedy set for lambda -> infinity, affordable.  When the greedy set
        # where their lines meet lies on that point, lambda minimizes the
        # dual, and no smaller lambda does: the line of ``heavy`` falls.
        # lambda = a/b, and w[e] is b * D_p * (p_e - lambda*c_e).
        #
        # Step bound: every set found is greedy at some lambda, so its line
        # supports the dual there; the earlier heavy sets touch it left of
        # the current heavy's point and the earlier light sets right of the
        # current light's.  So at the lambda where heavy's and light's lines
        # meet, every line found so far lies on or below them, and a probe
        # that does not stop the loop lies strictly above: no set repeats.
        # The greedy order, hence the greedy set, changes only where two of
        # the n weight lines cross or one crosses zero, at most n(n+1)/2
        # points; with the open intervals between them that leaves at most
        # n^2 + n + 1 distinct greedy sets.  More steps mean wrong weights.
        zero_cost = sorted((e for e in items if C[e] == 0), key=lambda e: (-P[e], e))
        light = greedy(m, zero_cost)
        lc, lp = 0, profit(light)
        n = len(items)
        for _ in range(n * n + n + 1):
            a, b = hp - lp, hc - lc
            w = {e: b * P[e] - a * C[e] for e in items}
            probe = greedy(m, sorted((e for e in items if w[e] > 0), key=lambda e: (-w[e], e)))
            if sum(w[e] for e in probe) == b * hp - a * hc:
                break
            pc = cost(probe)
            if pc > B:
                heavy, hc, hp = probe, pc, profit(probe)
            else:
                light, lc, lp = probe, pc, profit(probe)
        else:
            raise InternalInvariantError(
                f"Newton steps for lambda* exceeded {n * n + n + 1} on {n} items"
            )

        left = sorted((e for e in items if w[e] >= 0), key=lambda e: (-w[e], -C[e], e))
        heavy = None
        for seq in _walk(left, w, C):
            light = greedy(m, seq)
            lc = cost(light)
            if heavy is not None and hc > B >= lc:
                break
            heavy, hc = light, lc
        else:
            raise InternalInvariantError("greedy walk never crossed the budget")
        hp, lp = profit(heavy), profit(light)
        # theta = t/u = (B - c(light)) / (c(heavy) - c(light)) in lowest terms.
        t, u = _ratio(B - lc, hc - lc)

    # x times u, the denominator of theta, so every entry is an integer.
    x = dict.fromkeys(heavy, t)
    for e in light:
        x[e] = x.get(e, 0) + u - t
    x = {e: v for e, v in x.items() if v != 0}
    value = sum(P[e] * v for e, v in x.items())  # u * D_p * p.x

    # Primal = dual: x is feasible and p.x equals the Lagrangian bound at
    # lambda, lambda*budget + the greedy value; times b * D_p that bound is
    # a*B + (b*P(light) - a*C(light)).
    reduced_light = b * lp - a * lc
    if b * hp - a * hc != reduced_light or b * value != u * (a * B + reduced_light):
        raise InternalInvariantError("parametric greedy: primal value differs from dual bound")
    if sum(C[e] * v for e, v in x.items()) > u * B:
        raise InternalInvariantError("parametric greedy: point exceeds the budget")
    fractional = tuple(e for e in domain if 0 < x.get(e, 0) < u)
    LP_STATS.record(len(fractional))
    if len(fractional) > 2:
        raise InternalInvariantError(
            f"basic LP solution has {len(fractional)} fractional entries (limit 2)"
        )
    return LpOutcome(domain, x, u, fractional, _ratio(value, u * dp), _ratio(a * dc, b * dp))


def solve_rational_lp(m: Matroid, profits, costs, budget) -> LpOutcome:
    """``solve_polytope_lp`` on rational profits, costs and budget, scaled
    by D_p, the lcm of the profits' denominators over ``m.ground``, and by
    D_c, the lcm of the costs' and the budget's."""
    domain = tuple(sorted(m.ground))
    dp = lcm(*(profits[e].denominator for e in domain))
    dc = lcm(budget.denominator, *(costs[e].denominator for e in domain))
    P = dict(zip(domain, _scaled((profits[e] for e in domain), dp)))
    C = dict(zip(domain, _scaled((costs[e] for e in domain), dc)))
    return solve_polytope_lp(m, P, C, budget.numerator * (dc // budget.denominator), dp, dc)


def lp_variables(inst: BmiInstance, eps: Fraction, alpha: Fraction) -> frozenset:
    """Active elements cheap enough in profit to be LP variables: p(e) <= 2 eps alpha.

    In the instance's ``IntegerView`` the test is P_e * den(eps) * den(alpha)
    <= 2 * num(eps) * num(alpha) * dp, one integer comparison per element.
    """
    view = inst.view
    scale = eps.denominator * alpha.denominator
    bound = 2 * eps.numerator * alpha.numerator * view.dp
    return frozenset(e for e in inst.active if view.profits[e] * scale <= bound)


def residual_matroid(inst: BmiInstance, f: frozenset, variables: frozenset) -> Matroid:
    """The contracted-and-restricted matroid whose polytope the LP uses;
    ``variables`` is the guess's ``lp_variables``."""
    m = inst.active_matroid()
    if not f and variables == inst.active:
        return m  # the bootstrap LP: nothing to contract or restrict
    # Contracting nothing is the identity; skipping it spares every F = {}
    # solve a wrapper on each oracle call.
    return restrict(contract(m, f) if f else m, variables - f)


def solve_lp(inst: BmiInstance, f: Iterable[int], variables: frozenset) -> LpOutcome:
    """Exact basic optimum of the budget-constrained polytope LP given fixed,
    independent F, over the elements of ``variables`` outside F.

    One call of the integer core on the instance's ``IntegerView``, whose
    ``dp`` and ``dc`` give the outcome in the instance's own units.
    """
    fs = frozenset(f)
    view = inst.view
    spent = view.cost(fs)
    if spent > view.budget:
        raise PreconditionError("F exceeds the budget")
    residual = residual_matroid(inst, fs, variables)
    return solve_polytope_lp(
        residual, view.profits, view.costs, view.budget - spent, view.dp, view.dc
    )


def round_integral(inst: BmiInstance, outcome: LpOutcome, f: Iterable[int]) -> frozenset:
    """The integral part of the LP vertex joined with F; asserted feasible."""
    u = outcome.u
    chosen = frozenset(f).union([e for e, v in outcome.xu.items() if v == u])
    if not inst.active_matroid().is_independent(chosen):
        raise InternalInvariantError("rounded LP solution is dependent")
    if inst.view.cost(chosen) > inst.view.budget:
        raise InternalInvariantError("rounded LP solution exceeds the budget")
    return chosen


def _better(profit_a, sol_a, profit_b, sol_b) -> bool:
    """True if (profit_a, sol_a) beats (profit_b, sol_b) under the fixed tie-break."""
    if profit_a != profit_b:
        return profit_a > profit_b
    return tuple(sorted(sol_a)) < tuple(sorted(sol_b))


def bootstrap(inst: BmiInstance) -> tuple[Fraction, Fraction, frozenset]:
    """Bootstrap bounds and winner (upper, lower, best), lower >= upper / 3.

    One uncapped LP solve over all active elements: upper is the LP optimum
    (>= OPT).  best is the better, under ``_better``, of the integral part
    of the LP and the best singleton, the lowest id among equal profits;
    every active singleton is affordable, as parsing rejects a cost above
    the budget.  lower is best's profit.  At most two fractional entries,
    each worth at most one singleton profit, give the factor 3, checked on
    the integers of the ``IntegerView`` and the LP's objective pair.
    """
    if not inst.active:
        return ZERO, ZERO, frozenset()
    view = inst.view
    outcome = solve_lp(inst, frozenset(), inst.active)
    top = max(sorted(inst.active), key=view.profits.__getitem__)
    best = round_integral(inst, outcome, frozenset())
    profit = view.profit(best)
    if _better(view.profits[top], (top,), profit, best):
        best, profit = frozenset((top,)), view.profits[top]
    num, den = outcome.objective_pair
    if 3 * profit * den < num * view.dp:
        raise InternalInvariantError("bootstrap gap exceeded the factor-3 bound")
    return outcome.objective, Fraction(profit, view.dp), best


def lp_upper_bound(inst: BmiInstance) -> tuple[Fraction, Fraction]:
    """Bootstrap bounds (upper, lower) with lower >= upper / 3; see ``bootstrap``."""
    upper, lower, _ = bootstrap(inst)
    return upper, lower
