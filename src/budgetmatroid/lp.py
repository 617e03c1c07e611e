"""Exact LP over the matroid polytope under a residual budget.

solve_polytope_lp maximizes p.x over {x in P_M : c.x <= budget} through its
Lagrangian dual, min over lambda >= 0 of lambda*budget + max{w.x : x in P_M}
with w = p - lambda*c, whose inner maximum is the greedy algorithm on the
positive weights (Ravi and Goemans, SWAT 1996; Berger, Bonifaci, Grandoni
and Schaefer, Math. Prog. 2011): the upper envelope of one line
p(S) + lambda*(budget - c(S)) per independent set S.  Newton's method
(Dinkelbach 1967; Radzik 1992), in the line-intersection form of Eisner and
Severance (JACM 1976), finds the optimal multiplier lambda*.  The greedy
set just right of lambda = 0 maximizes profit over P_M; when it fits the
budget, lambda* = 0 and that integral set is the optimum, returned at once.
Otherwise, from that set, over budget, and its part that fits the budget,
it intersects an over-budget and an affordable set's lines and runs greedy
there (the oracle's incremental scan, see ``matroid.greedy``) until that
set's line passes through the point.  The last pass is the greedy set of
the order just left of lambda*; walking to the order just right of it, one
tie or zero weight at a time, changes the set by at most one removal or
swap per step, at most one oracle test each.  The two sets on either side
of the budget mix into a budget-tight vertex with at most two fractional
entries, and the solve checks primal = dual and that bound.  At lambda* = 0
both checks are identities (see ``solve_polytope_lp``).
A residual LP, over M/F for a guess F, runs every greedy pass and walk
test on top of the independent base F, over the variables it is given,
and takes the same lambda* = 0 exit: no handle is built for M/F or for M
on the variables and F.

The solve runs on integers: the core takes profits times D_p and costs and
budget times D_c, lambda = a/b is a pair of integers, and ``LpOutcome``
keeps x*u (u the denominator of theta), the objective and lambda* as
integers.  ``solve_lp`` and ``bootstrap`` call the core on the instance's
``IntegerView``.  The tests diff the core against a reference core
(residual LPs on hand-built M/F handles) and, through a rational entry that
scales by the denominators' lcms, against an LP value found by listing
independent sets.

``complete`` fills an independent, affordable set greedily by profit/cost
ratio; the scheme's certified exit runs it on the bootstrap's winner when
that winner alone misses the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from math import gcd
from typing import Iterable, Mapping

from .errors import InternalInvariantError, PreconditionError
from .instance import BmiInstance
from .matroid import Matroid, greedy


class LpStats:
    """Process-wide counts of LP solves and the most fractional entries in
    one answer.  Acceptance criterion 3, the tests and the benchmark's
    traced run read them; reports do not (``lp_calls`` counts a run's
    residual LPs)."""

    def __init__(self):
        self.solves = 0
        self.max_fractional = 0

    def record(self, fractional: int) -> None:
        self.solves += 1
        if fractional > self.max_fractional:
            self.max_fractional = fractional


LP_STATS = LpStats()


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
    supports and multipliers are.  ``objective`` and ``multiplier`` build
    the Fractions on access.
    """

    domain: tuple[int, ...]
    xu: Mapping[int, int] = field(repr=False)
    u: int
    fractional_support: tuple[int, ...]
    objective_pair: tuple[int, int]
    multiplier_pair: tuple[int, int]

    @property
    def objective(self) -> Fraction:
        return Fraction(*self.objective_pair)

    @property
    def multiplier(self) -> Fraction:
        return Fraction(*self.multiplier_pair)


def _walk(m: Matroid, seq: list[int], w: Mapping[int, int], costs, kept: set, base: frozenset):
    """Greedy-set changes from the order just left of lambda* to the one just right.

    ``seq``, the left order, and ``kept``, its greedy set on top of the
    independent ``base``, change in place.  Zero-weight elements, last in
    ``seq``, leave one at a time; then adjacent elements tied at lambda*
    swap into the right order, (-w, C, id), so ``seq`` stays sorted by
    non-increasing weight.  The greedy set of a prefix of an order is the
    order's greedy set within it, so a pop drops the element from ``kept``,
    and a swap of e, f at i, i + 1 turns ``kept`` into kept - e + f exactly
    when e is kept, f is not and base + (kept & seq[:i]) + f is
    independent: both then span the same flat and the rest of the scan is
    unchanged.  Other steps change nothing.
    Yields (e, f) after each change: e removed, f added or None for a pop.
    """
    while seq and w[seq[-1]] == 0:
        e = seq.pop()
        if e in kept:
            kept.remove(e)
            yield e, None
    swapped = True
    while swapped:
        swapped = False
        for i in range(len(seq) - 1):
            e, f = seq[i], seq[i + 1]
            if w[e] == w[f] and (costs[e], e) > (costs[f], f):
                seq[i], seq[i + 1] = f, e
                swapped = True
                if e in kept and f not in kept:
                    if m.indep_fn(base.union([g for g in seq[:i] if g in kept], (f,))):
                        kept ^= {e, f}  # e leaves, f joins
                        yield e, f


def solve_polytope_lp(m: Matroid, variables, P, C, B, dp, dc, base=frozenset()) -> LpOutcome:
    """Exact basic optimum of max{p.x : c.x <= budget, x in P_M/base, x >= 0} on integers.

    The integer core over ``variables``, elements of ``m.ground`` outside
    the independent ``base``; it reads ``m``'s oracle, not ``m.ground``.
    ``P`` and ``C``, mappings or sequences indexed by element, give each
    element its profit times ``dp`` and its cost times ``dc``, all integers,
    and ``B`` is the budget times ``dc``.  At lambda = a/b the greedy order
    sorts on b*P_e - a*C_e, a positive multiple of p_e - lambda*c_e.
    ``dp`` and ``dc`` only scale the outcome: it keeps the point as the
    integers x*u, the objective as u*dp*p.x over u*dp and lambda* as a*dc
    over b*dp, all in lowest terms.  The items are sorted by cost once per
    LP, and each Newton probe sorts those with w >= 0 by weight once.

    When ``heavy``, the greedy set just right of lambda = 0, fits the
    budget, its integral point is returned at once with u = 1, no
    fractional entry, objective P(heavy) over dp and lambda* = 0.  The
    mixing would take light = heavy, a = 0 and b = u = 1 there: primal =
    dual and the fractional count hold as identities, and its budget check
    is the branch's own test c(heavy) <= B.  The exit still records the
    solve in ``LP_STATS``, and ``round_integral`` still asserts the rounded
    set independent and affordable.
    """
    if B < 0:
        raise PreconditionError("negative residual budget")
    domain = tuple(sorted(variables))
    items = [e for e in domain if P[e] > 0]
    cost = lambda s: sum(map(C.__getitem__, s))
    profit = lambda s: sum(map(P.__getitem__, s))

    # The greedy set just right of lambda = 0, in the order (-P, C, id) of
    # two stable sorts: the cheapest set of maximum profit.
    order = sorted(items, key=C.__getitem__)
    order.sort(key=P.__getitem__, reverse=True)
    heavy = greedy(m, order, base)
    hc = cost(heavy)
    if hc <= B:
        # lambda* = 0: heavy maximizes p over P_M and fits the budget.
        LP_STATS.record(0)
        return LpOutcome(domain, dict.fromkeys(heavy, 1), 1, (), _ratio(profit(heavy), dp), (0, 1))
    hp = profit(heavy)
    # Newton steps on the sums of two sets: heavy (hc, hp) stays over
    # budget and light (lc, lp) affordable, first the part of ``heavy``
    # that fits the budget in greedy order, found with no oracle call.
    # lambda = a/b and w[e] = b * D_p * (p_e - lambda*c_e).  A probe on
    # the point where their lines meet shows lambda minimizes the dual,
    # and heavy's falling line the leftmost: every start ends at lambda*.
    # Step bound: a probe is greedy at its lambda, so its line supports
    # the dual there; earlier heavy probes touch it left of the current
    # heavy's point and earlier light probes right of the current
    # light's.  The first light set need not be greedy, but no light
    # probe precedes it and, once replaced, it never returns.  So where
    # heavy's and light's lines meet, every probe's line lies on or
    # below them, and a probe that does not stop the loop lies above:
    # none repeats.  The greedy set changes only where two of the n
    # weight lines cross or one crosses zero, at most n(n+1)/2 points,
    # so more than n^2 + n + 1 steps mean wrong weights.
    lc = lp = 0
    for e in order:
        if e in heavy and lc + C[e] <= B:
            lc, lp = lc + C[e], lp + P[e]
    n = len(items)
    # (-C, id), as a reverse sort keeps ties in order: the walk's first order is (-w, -C, id).
    by_cost = sorted(items, key=C.__getitem__, reverse=True)
    for _ in range(n * n + n + 1):
        a, b = hp - lp, hc - lc
        w = {e: b * P[e] - a * C[e] for e in items}
        left = [e for e in by_cost if w[e] >= 0]
        left.sort(key=w.__getitem__, reverse=True)
        probe = greedy(m, left, base)
        pc = cost(probe)
        if sum(map(w.__getitem__, probe)) == b * hp - a * hc:
            break
        if pc > B:
            hc, hp = pc, profit(probe)
        else:
            lc, lp = pc, profit(probe)
    else:
        raise InternalInvariantError(
            f"Newton steps for lambda* exceeded {n * n + n + 1} on {n} items"
        )

    kept = set(probe)
    for e, f in _walk(m, left, w, C, kept, base):
        lc = pc - C[e] + (0 if f is None else C[f])
        if pc > B >= lc:
            light = frozenset(kept)
            heavy, hc = light.union((e,)).difference((f,)), pc
            break
        pc = lc
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
    fractional = tuple(sorted(e for e, v in x.items() if v < u))
    LP_STATS.record(len(fractional))
    if len(fractional) > 2:
        raise InternalInvariantError(
            f"basic LP solution has {len(fractional)} fractional entries (limit 2)"
        )
    return LpOutcome(domain, x, u, fractional, _ratio(value, u * dp), _ratio(a * dc, b * dp))


def lp_variables(inst: BmiInstance, eps: Fraction, alpha: Fraction) -> frozenset:
    """Active elements cheap enough in profit to be LP variables: p(e) <= 2 eps alpha.

    In the instance's ``IntegerView`` the test is P_e * den(eps) * den(alpha)
    <= 2 * num(eps) * num(alpha) * dp, one integer comparison per element.
    """
    view = inst.view
    scale = eps.denominator * alpha.denominator
    bound = 2 * eps.numerator * alpha.numerator * view.dp
    return frozenset(e for e in inst.active if view.profits[e] * scale <= bound)


def solve_lp(inst: BmiInstance, f: Iterable[int], variables: frozenset) -> LpOutcome:
    """Exact basic optimum of the budget-constrained polytope LP given fixed,
    independent F, over ``variables`` - F, both within the active set: one
    core call on the instance's matroid and ``IntegerView``, with base F."""
    fs = frozenset(f)
    pool = variables | fs
    if not pool <= inst.active:
        raise PreconditionError(f"elements {sorted(pool - inst.active)} outside the active set")
    view = inst.view
    spent = view.cost(fs)
    if spent > view.budget:
        raise PreconditionError("F exceeds the budget")
    P, C, B = view.profits, view.costs, view.budget - spent
    return solve_polytope_lp(inst.matroid, variables - fs, P, C, B, view.dp, view.dc, fs)


def _feasible(inst: BmiInstance, chosen: frozenset, what: str) -> frozenset:
    """``chosen``, asserted independent in the instance's matroid and within
    the budget; ``what`` names it in the ``InternalInvariantError``."""
    if not inst.matroid.is_independent(chosen):
        raise InternalInvariantError(f"{what} is dependent")
    if inst.view.cost(chosen) > inst.view.budget:
        raise InternalInvariantError(f"{what} exceeds the budget")
    return chosen


def round_integral(inst: BmiInstance, outcome: LpOutcome, f: Iterable[int]) -> frozenset:
    """The integral part of the LP vertex joined with F; asserted feasible."""
    u = outcome.u
    chosen = frozenset(f).union([e for e, v in outcome.xu.items() if v == u])
    return _feasible(inst, chosen, "rounded LP solution")


def complete(inst: BmiInstance, start: Iterable[int]) -> frozenset:
    """The independent, affordable ``start`` filled greedily by profit/cost ratio.

    The other active elements of positive profit are scanned by
    non-increasing ratio P_e / C_e in the instance's ``IntegerView``, ties by
    id: a before b when P_a * C_b > P_b * C_a, so zero-cost elements come
    first and no ratio is built.  Each that keeps the set affordable and
    independent joins it, one oracle test per element that fits the budget.
    This is the fill of Sahni's knapsack PTAS (JACM 1975); the result is
    asserted feasible by ``_feasible``, as ``round_integral``'s is.
    """
    view = inst.view
    P, C = view.profits, view.costs
    indep = inst.matroid.indep_fn
    chosen = frozenset(start)
    spent = view.cost(chosen)
    rest = [e for e in sorted(inst.active - chosen) if P[e] > 0]
    rest.sort(key=cmp_to_key(lambda a, b: P[b] * C[a] - P[a] * C[b]))
    for e in rest:
        if spent + C[e] <= view.budget:
            ext = chosen | {e}
            if indep(ext):
                chosen, spent = ext, spent + C[e]
    return _feasible(inst, chosen, "completed solution")


def _better(profit_a, sol_a, profit_b, sol_b) -> bool:
    """True if (profit_a, sol_a) beats (profit_b, sol_b) under the fixed tie-break."""
    if profit_a != profit_b:
        return profit_a > profit_b
    return tuple(sorted(sol_a)) < tuple(sorted(sol_b))


def bootstrap(inst: BmiInstance) -> tuple[Fraction, int, frozenset]:
    """Bootstrap bound and winner (upper, profit, best), 3 * profit / dp >= upper.

    One call of the core on the instance's matroid: upper is the LP optimum
    (>= OPT).  best is the better, under ``_better``, of the LP's integral
    part and the best singleton of the LP's sorted domain (lowest id on
    ties, and affordable, as parsing rejects a cost above the budget);
    profit is its profit in the ``IntegerView``, dp times the lower bound.
    At most two fractional entries, each worth at most one singleton, give
    the factor 3, checked on the integers and the objective pair.
    """
    if not inst.active:
        return Fraction(0), 0, frozenset()
    view = inst.view
    P, C = view.profits, view.costs
    outcome = solve_polytope_lp(inst.matroid, inst.active, P, C, view.budget, view.dp, view.dc)
    top = max(outcome.domain, key=P.__getitem__)
    best = round_integral(inst, outcome, frozenset())
    profit = view.profit(best)
    if _better(P[top], (top,), profit, best):
        best, profit = frozenset((top,)), P[top]
    num, den = outcome.objective_pair
    if 3 * profit * den < num * view.dp:
        raise InternalInvariantError("bootstrap gap exceeded the factor-3 bound")
    return outcome.objective, profit, best


def lp_upper_bound(inst: BmiInstance) -> tuple[Fraction, Fraction]:
    """Bootstrap bounds (upper, lower) with lower >= upper / 3; see ``bootstrap``."""
    upper, profit, _ = bootstrap(inst)
    return upper, Fraction(profit, inst.view.dp)
