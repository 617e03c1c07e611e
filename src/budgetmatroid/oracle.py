"""Ground-truth solvers for desk-scale verification.

The brute-force search prunes using only the hereditary axiom, so it stays
correct even against an oracle that violates the exchange axiom — useful
when diagnosing a broken family implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import ScaleCapError, ValidationError
from .instance import BmiInstance, format_rational

ZERO = Fraction(0)


@dataclass(frozen=True)
class ExactResult:
    solution: frozenset
    profit: Fraction
    nodes: int


def brute_force_opt(inst: BmiInstance, cap: int = 20) -> ExactResult:
    """Exact optimum by DFS over subsets with hereditary/budget pruning."""
    elems = sorted(inst.active)
    if len(elems) > cap:
        raise ScaleCapError(f"{len(elems)} active elements exceed brute-force cap {cap}")
    m = inst.active_matroid()
    best_set: frozenset = frozenset()
    best_profit = ZERO
    nodes = 0

    def consider(candidate: frozenset, profit: Fraction):
        nonlocal best_set, best_profit
        if profit > best_profit or (
            profit == best_profit and tuple(sorted(candidate)) < tuple(sorted(best_set))
        ):
            best_set, best_profit = candidate, profit

    def dfs(idx: int, current: frozenset, cost: Fraction, profit: Fraction):
        nonlocal nodes
        nodes += 1
        consider(current, profit)
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


def knapsack_dp(inst: BmiInstance, cap: int = 100_000) -> Fraction:
    """Exact 0/1-knapsack optimum for the free-matroid special case.

    Costs are scaled by their common denominator to integers and the DP runs
    over integer capacities; profits stay exact rationals.
    """
    spec = inst.matroid_spec
    if spec.kind != "uniform" or spec.rank < inst.n:
        raise ValidationError("knapsack DP requires a free matroid (uniform rank >= n)")
    elems = sorted(inst.active)
    denom = lcm(inst.budget.denominator, *(inst.costs[e].denominator for e in elems)) if elems else 1
    capacity = inst.budget * denom
    assert capacity.denominator == 1
    capacity = int(capacity)
    if capacity > cap:
        raise ScaleCapError(f"integerized budget {format_rational(capacity)} exceeds DP cap {cap}")
    dp: list[Fraction | None] = [None] * (capacity + 1)
    dp[0] = ZERO
    for e in elems:
        w = int(inst.costs[e] * denom)
        p = inst.profits[e]
        for c in range(capacity, w - 1, -1):
            prev = dp[c - w]
            if prev is not None and (dp[c] is None or prev + p > dp[c]):
                dp[c] = prev + p
    return max(v for v in dp if v is not None)
