"""Shared brute-force utilities for the test suite.

Everything here is deliberately independent of the code paths under test:
ranks and bases come from exhaustive bitmask enumeration, not from the
greedy routines, and the reference enumeration of F scans every
combination rather than pruning.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from math import floor, log

from budgetmatroid.families import construct
from budgetmatroid.generate import GenSpec, _random_family, generate_instance
from budgetmatroid.instance import make_instance
from budgetmatroid.lp import lp_variables, round_integral, solve_lp
from budgetmatroid.matroid import Matroid
from budgetmatroid.scheme import EpsParam, _better, find_rep

FAMILIES = ("uniform", "partition", "graphic", "linear", "explicit")


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
    indep = inst.active_matroid().indep_fn
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
    """profit_class in Fraction arithmetic on the instance's own profits."""
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


def lp_variables_reference(inst, eps: Fraction, alpha: Fraction) -> frozenset:
    """lp_variables as a Fraction comparison: p(e) <= 2 eps alpha."""
    return frozenset(e for e in inst.active if inst.profits[e] <= 2 * eps * alpha)
