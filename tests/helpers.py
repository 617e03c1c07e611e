"""Shared brute-force utilities for the test suite.

Everything here is deliberately independent of the code paths under test:
ranks and bases come from exhaustive bitmask enumeration, not from the
greedy routines, and the reference enumeration of F scans every
combination rather than pruning.  ``newton_lp_reference`` keeps the LP
core as it was before its walk updated the greedy set in place: it runs
one full greedy pass per set it visits.  ``loop_greedy`` is the generic
greedy loop, one independence test per element, that the oracles'
incremental scans and ``matroid.greedy`` are diffed against.
``solve_rational_lp`` is the tests' rational entry to the LP core.
``reference.py`` holds the references that moved out of the package.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from typing import Iterable, Mapping
from math import floor, lcm, log

from budgetmatroid.families import construct
from budgetmatroid.generate import GenSpec, _random_family, generate_instance
from budgetmatroid.instance import _scaled, make_instance
from budgetmatroid.errors import InternalInvariantError, PreconditionError
from budgetmatroid.lp import (
    LpOutcome,
    _ratio,
    lp_variables,
    round_integral,
    solve_lp,
    solve_polytope_lp,
)
from budgetmatroid.matroid import Matroid, greedy
from budgetmatroid.scheme import EpsParam, _better, find_rep

FAMILIES = ("uniform", "partition", "graphic", "linear", "explicit")


def listed_sets_matroid(sets, n: int) -> Matroid:
    """The subsets of the listed sets over n elements, built by hand, so that
    it need not be a matroid (``construct`` rejects listed sets that are not
    the bases of one)."""
    sets = [frozenset(s) for s in sets]
    return Matroid(frozenset(range(n)), lambda s: not s or any(s <= m for m in sets))


def independence_table(m: Matroid) -> tuple[list[int], list[bool]]:
    """(sorted elements, table) with table[mask] = independence of that subset."""
    elems = sorted(m.ground)
    n = len(elems)
    table = []
    for mask in range(1 << n):
        s = frozenset(elems[i] for i in range(n) if mask >> i & 1)
        table.append(m.indep_fn(s))
    return elems, table


def exhaustive_rank(m: Matroid, subset) -> int:
    """Rank by enumerating every subset of `subset`."""
    s = sorted(subset)
    best = 0
    for size in range(len(s), 0, -1):
        for combo in itertools.combinations(s, size):
            if m.indep_fn(frozenset(combo)):
                return size
    return best


def all_independent_sets(m: Matroid) -> list[frozenset]:
    elems, table = independence_table(m)
    n = len(elems)
    return [
        frozenset(elems[i] for i in range(n) if mask >> i & 1)
        for mask in range(1 << n)
        if table[mask]
    ]


def all_bases(m: Matroid) -> list[frozenset]:
    indep = all_independent_sets(m)
    top = max(len(s) for s in indep)
    return [s for s in indep if len(s) == top]


def loop_greedy(indep, base, order):
    """The generic greedy loop from ``base``: one independence test per element."""
    kept = frozenset(base)
    for e in order:
        if indep(kept | {e}):
            kept = kept | {e}
    return kept


def maximal_sets_reference(m: Matroid) -> tuple[tuple[int, ...], ...]:
    """The maximal independent sets, by testing all 2^n subsets and dropping
    every set strictly inside another, as sorted tuples in sorted order."""
    indep = all_independent_sets(m)
    return tuple(sorted(tuple(sorted(s)) for s in indep if not any(s < t for t in indep)))


def random_matroid(rng: random.Random, n: int, kind: str | None = None) -> Matroid:
    if kind is None:
        kind = rng.choice(("uniform", "partition", "graphic", "linear"))
    if kind == "explicit" and n > 10:
        kind = "partition"
    return construct(_random_family(rng, kind, n), n)


def random_instance(rng: random.Random, family: str, n: int):
    return generate_instance(GenSpec(family, n, seed=rng.randrange(1 << 30)))


def gap_instance(family: str, n: int, seed: int):
    """A gap-heavy instance under budget 100 on the generator's random family.

    A third of the elements cost just over a third or a half of the budget
    (34-36 or 51-53) with profit within 2 of cost; the rest cost 1-8 with
    profit at 60-90 % of cost.  Few heavy elements fit together, so the LP
    bound can stay well above the optimum.
    """
    rng = random.Random(seed)
    spec = _random_family(rng, family, n)
    heavy = set(rng.sample(range(n), n // 3))
    costs, profits = [], []
    for e in range(n):
        if e in heavy:
            cost = rng.choice((34, 51)) + rng.randint(0, 2)
            costs.append(Fraction(cost))
            profits.append(Fraction(cost + rng.randint(-2, 2)))
        else:
            cost = rng.randint(1, 8)
            costs.append(Fraction(cost))
            profits.append(Fraction(cost * rng.randint(60, 90), 100))
    return make_instance(Fraction(100), costs, profits, spec)


def skewed_size(rng: random.Random, max_n: int = 14) -> int:
    """Sizes biased small so exhaustive oracles stay cheap."""
    weights = {n: max(1, 16 - n * (1 if n <= 9 else 3)) for n in range(3, max_n + 1)}
    total = sum(weights.values())
    pick = rng.randrange(total)
    for n, w in weights.items():
        if pick < w:
            return n
        pick -= w
    return max_n


def random_rational(rng: random.Random, num_max: int = 8, dens=(1, 2, 3, 4)) -> Fraction:
    return Fraction(rng.randint(0, num_max), rng.choice(dens))


def reference_run_for_alpha(inst, eps, alpha) -> tuple[frozenset, list, int]:
    """(best solution, every F sent to the LP, oracle calls) of run_for_alpha
    by a plain scan; the F sent to the LP are the F enumerated.

    Tests every combination of at most 1/eps elements of the representative
    set, by size and then lexicographically, for budget and then for
    independence, counting each oracle call, and sends each one that passes
    to ``solve_lp``.
    """
    r_sorted = sorted(find_rep(inst, eps, alpha).elements)
    variables = lp_variables(inst, eps.eps, alpha)
    indep = inst.matroid.indep_fn
    oracle_calls = 0
    lp_sets = []
    best_set: frozenset = frozenset()
    best_profit = Fraction(0)
    for size in range(0, min(eps.k, len(r_sorted)) + 1):
        for combo in itertools.combinations(r_sorted, size):
            fs = frozenset(combo)
            if inst.cost(fs) > inst.budget:
                continue
            oracle_calls += 1
            if not indep(fs):
                continue
            lp_sets.append(fs)
            candidate = round_integral(inst, solve_lp(inst, fs, variables), fs)
            profit = inst.profit(candidate)
            if len(lp_sets) == 1 or _better(profit, candidate, best_profit, best_set):
                best_set, best_profit = candidate, profit
    return best_set, lp_sets, oracle_calls


def power_index_reference(base: Fraction, x: Fraction, cap: float) -> int:
    """min(cap, the r >= 1 with x in (base^r, base^(r-1)]) for 0 < base < 1,
    0 < x <= 1, in Fraction arithmetic.

    A float guess from the logarithms of x's numerator and denominator,
    then exact Fraction comparisons: one power, then one multiplication or
    division per step.
    """
    r = min(max(1, floor((log(x.numerator) - log(x.denominator)) / log(base)) + 1), cap)
    upper = base ** (r - 1)
    while r > 1 and x > upper:
        r, upper = r - 1, upper / base
    while r < cap and x <= upper * base:
        r, upper = r + 1, upper * base
    return r


@functools.lru_cache(maxsize=None)
def r_max_by_power_index(k: int) -> int:
    """EpsParam(k).r_max in Fraction arithmetic: the class of eps/2."""
    eps = Fraction(1, k)
    return power_index_reference(1 - eps, eps / 2, float("inf"))


def profit_class_reference(inst, eps: EpsParam, alpha: Fraction, e: int) -> int | None:
    """The class of e, as ``class_partition`` places it, in Fraction
    arithmetic on the instance's own profits."""
    ratio = inst.profits[e] / (2 * alpha)
    if not 0 < ratio <= 1:
        return None
    r_max = r_max_by_power_index(eps.k)
    r = power_index_reference(1 - eps.eps, ratio, r_max + 1)
    return r if r <= r_max else None


def class_partition_reference(inst, eps: EpsParam, alpha: Fraction) -> dict:
    """class_partition from ``profit_class_reference``."""
    classes: dict[int, list[int]] = {}
    for e in sorted(inst.active):
        r = profit_class_reference(inst, eps, alpha, e)
        if r is not None:
            classes.setdefault(r, []).append(e)
    return {r: tuple(v) for r, v in classes.items()}


def solve_rational_lp(m: Matroid, profits, costs, budget) -> LpOutcome:
    """``lp.solve_polytope_lp`` on rational profits, costs and budget, scaled
    by D_p, the lcm of the profits' denominators over ``m.ground``, and by
    D_c, the lcm of the costs' and the budget's."""
    domain = tuple(sorted(m.ground))
    dp = lcm(*(profits[e].denominator for e in domain))
    dc = lcm(budget.denominator, *(costs[e].denominator for e in domain))
    P = dict(zip(domain, _scaled((profits[e] for e in domain), dp)))
    C = dict(zip(domain, _scaled((costs[e] for e in domain), dc)))
    B = budget.numerator * (dc // budget.denominator)
    return solve_polytope_lp(m, m.ground, P, C, B, dp, dc)


def lp_variables_reference(inst, eps: Fraction, alpha: Fraction) -> frozenset:
    """lp_variables as a Fraction comparison: p(e) <= 2 eps alpha."""
    return frozenset(e for e in inst.active if inst.profits[e] <= 2 * eps * alpha)


def _walk_reference(seq: list[int], w: Mapping[int, int], costs) -> Iterable[list[int]]:
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


def newton_lp_reference(m: Matroid, P, C, B: int, dp: int, dc: int) -> LpOutcome:
    """``lp.solve_polytope_lp`` as it stood before its Newton loop started
    from a subset of ``heavy`` and its walk updated the greedy set one
    oracle test per step: the reference the core is diffed against.

    It starts the affordable side from a greedy pass over the zero-cost
    items, probes with the tie-break (-w, id) on positive weights and runs
    one full greedy pass per walk step.  It records no ``LP_STATS``.

    ``P`` and ``C``, mappings or sequences indexed by element, give each
    element of ``m.ground`` its profit times ``dp`` and its cost times
    ``dc``, all integers, and ``B`` is the budget times ``dc``.  At
    lambda = a/b the greedy order sorts on b*P_e - a*C_e, a positive
    multiple of p_e - lambda*c_e.  ``dp`` and ``dc`` only scale
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
        for seq in _walk_reference(left, w, C):
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
    if len(fractional) > 2:
        raise InternalInvariantError(
            f"basic LP solution has {len(fractional)} fractional entries (limit 2)"
        )
    return LpOutcome(domain, x, u, fractional, _ratio(value, u * dp), _ratio(a * dc, b * dp))
