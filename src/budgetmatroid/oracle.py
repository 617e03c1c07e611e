"""Exact optimum by brute force, for desk-scale instances.

The search prunes using only the hereditary axiom, so it stays correct even
against an oracle that violates the exchange axiom — useful when diagnosing
a broken family implementation.  ``budgetmatroid solve --exact`` and
``budgetmatroid exact`` run it; the tests check it against a knapsack DP.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ScaleCapError
from .instance import BmiInstance
from .lp import _better

ZERO = Fraction(0)


@dataclass(frozen=True)
class ExactResult:
    solution: frozenset
    profit: Fraction
    nodes: int


def brute_force_opt(inst: BmiInstance, cap: int = 20) -> ExactResult:
    """Exact optimum by DFS over subsets with hereditary/budget pruning; ties
    go to the lexicographically smallest sorted set, as ``lp._better`` rules."""
    elems = sorted(inst.active)
    if len(elems) > cap:
        raise ScaleCapError(f"{len(elems)} active elements exceed brute-force cap {cap}")
    m = inst.matroid
    best_set: frozenset = frozenset()
    best_profit = ZERO
    nodes = 0

    def dfs(idx: int, current: frozenset, cost: Fraction, profit: Fraction):
        nonlocal best_set, best_profit, nodes
        nodes += 1
        if _better(profit, current, best_profit, best_set):
            best_set, best_profit = current, profit
        for pos in range(idx, len(elems)):
            e = elems[pos]
            new_cost = cost + inst.costs[e]
            if new_cost > inst.budget:
                continue
            ext = current | {e}
            if not m.indep_fn(ext):
                continue
            dfs(pos + 1, ext, new_cost, profit + inst.profits[e])

    dfs(0, frozenset(), ZERO, ZERO)
    return ExactResult(best_set, best_profit, nodes)

