"""Matroid and LP facts the solver takes as known, as the tests check them.

No caller of the package runs these, so they live beside ``helpers.py``:
rank, contraction and disjoint union (criterion 8 checks the last two),
points of the matroid polytope (``lp_point`` builds one from an
``LpOutcome``) and their exhaustive separation, the LP value found by
listing independent sets, the free-matroid knapsack DP that brute force
and the scheme are checked against, and Gaussian elimination over
Fractions, which the fraction-free linear oracle is diffed against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from budgetmatroid.errors import PreconditionError, ScaleCapError, ValidationError
from budgetmatroid.instance import BmiInstance, format_rational
from budgetmatroid.lp import LpOutcome
from budgetmatroid.matroid import Matroid, greedy
from helpers import all_independent_sets

ZERO = Fraction(0)
# Largest ground set solve_polytope_lp_reference enumerates: on generated
# instances the pair scan took 0.3 s per LP at 9 elements and 1 s at 10
# (means on 2 vCPUs, Python 3.11).
LP_REFERENCE_CAP = 9
# Largest integer budget, in the instance's IntegerView, knapsack_dp fills.
KNAPSACK_DP_CAP = 100_000


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


def lp_point(outcome: LpOutcome) -> FractionalPoint:
    """The outcome's point x, each entry x_e = xu[e] / u."""
    u = outcome.u
    return FractionalPoint(outcome.domain, {e: Fraction(v, u) for e, v in outcome.xu.items()})


def rank(m: Matroid, subset: Iterable[int]) -> int:
    """Greedy rank computation; correct for matroids by the exchange axiom."""
    s = frozenset(subset)
    if not s <= m.ground:
        raise PreconditionError(f"elements {sorted(s - m.ground)} outside ground set")
    return len(greedy(m, sorted(s)))


@dataclass(frozen=True)
class SeparationResult:
    inside: bool
    violated: frozenset | None = None
    violated_rank: int | None = None
    violated_mass: Fraction | None = None


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


def solve_polytope_lp_reference(
    m: Matroid,
    profits: Mapping[int, Fraction],
    costs: Mapping[int, Fraction],
    budget: Fraction,
) -> Fraction:
    """Optimum of max{p.x : c.x <= budget, x in P_M} by enumerating pairs.

    A vertex of P_M n {c.x <= budget} is a vertex of P_M or the point where
    an edge of P_M crosses the budget hyperplane, and an edge of P_M joins
    two independent sets.  So the optimum is the best affordable set or the
    best budget-tight point theta*chi_I + (1-theta)*chi_J with
    c(I) > budget >= c(J); every such point lies in P_M, which is convex.
    Refuses above ``LP_REFERENCE_CAP`` ground elements: the pair scan is
    quadratic in the number of independent sets.
    """
    n = len(m.ground)
    if n > LP_REFERENCE_CAP:
        raise ScaleCapError(f"ground size {n} exceeds LP-reference cap {LP_REFERENCE_CAP}")
    if budget < 0:
        raise PreconditionError("negative residual budget")
    sets = [
        (sum((profits[e] for e in s), ZERO), sum((costs[e] for e in s), ZERO))
        for s in all_independent_sets(m)
    ]
    affordable = [(p, c) for p, c in sets if c <= budget]
    best = max(p for p, _ in affordable)
    for p_i, c_i in sets:
        if c_i > budget:
            for p_j, c_j in affordable:
                theta = (budget - c_j) / (c_i - c_j)
                best = max(best, theta * p_i + (1 - theta) * p_j)
    return best


def knapsack_dp(inst: BmiInstance) -> Fraction:
    """Exact 0/1-knapsack optimum for the free-matroid special case.

    The DP runs over the ``IntegerView``'s integer costs and budget, the
    budget at most ``KNAPSACK_DP_CAP``; profits stay exact rationals.
    """
    spec = inst.matroid_spec
    if spec.kind != "uniform" or spec.rank < inst.n:
        raise ValidationError("knapsack DP requires a free matroid (uniform rank >= n)")
    view = inst.view
    if view.budget > KNAPSACK_DP_CAP:
        raise ScaleCapError(
            f"integerized budget {format_rational(view.budget)} exceeds DP cap {KNAPSACK_DP_CAP}"
        )
    dp: list[Fraction | None] = [None] * (view.budget + 1)
    dp[0] = ZERO
    for e in sorted(inst.active):
        w = view.costs[e]
        p = inst.profits[e]
        for c in range(view.budget, w - 1, -1):
            prev = dp[c - w]
            if prev is not None and (dp[c] is None or prev + p > dp[c]):
                dp[c] = prev + p
    return max(v for v in dp if v is not None)


def columns_independent_reference(cols: Sequence[Sequence[Fraction]]) -> bool:
    """Gaussian elimination over rationals; True iff the columns are linearly
    independent.  The linear family's oracle is tested against it."""
    if not cols:
        return True
    dim = len(cols[0])
    if len(cols) > dim:
        return False
    mat = [list(col) for col in cols]
    used_rows: set[int] = set()
    for vec in mat:
        pivot_row = None
        for r in range(dim):
            if r not in used_rows and vec[r] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            return False
        used_rows.add(pivot_row)
        inv = 1 / vec[pivot_row]
        for other in mat:
            if other is vec or other[pivot_row] == 0:
                continue
            factor = other[pivot_row] * inv
            for r in range(dim):
                other[r] -= factor * vec[r]
    return True


def contract(m: Matroid, f: Iterable[int]) -> Matroid:
    """M/F for independent F: A is independent iff A u F is in M."""
    fs = frozenset(f)
    if not m.is_independent(fs):
        raise PreconditionError("contraction set must be independent")
    parent = m.indep_fn
    return Matroid(m.ground - fs, lambda s: parent(s | fs), label=f"contract({m.label})")


def union(ms: list[Matroid]) -> Matroid:
    """Disjoint-ground union; A is independent iff each slice A n E_i is."""
    grounds = [m.ground for m in ms]
    for i, j in itertools.combinations(range(len(ms)), 2):
        if grounds[i] & grounds[j]:
            raise PreconditionError(
                f"union requires pairwise disjoint grounds; parts {i} and {j} overlap"
            )
    parts = tuple((m.ground, m.indep_fn) for m in ms)
    full = frozenset().union(*grounds) if grounds else frozenset()
    return Matroid(
        full,
        lambda s, _parts=parts: all(fn(s & g) for g, fn in _parts),
        label=f"union[{len(ms)}]",
    )

